package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE pair per family, histogram series expanded to cumulative
// `_bucket{le=...}` lines plus `_sum` and `_count`. Function-backed
// gauges are evaluated at scrape time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	keys, children := f.series()
	if len(keys) == 0 {
		return nil
	}
	if err := writeHeader(w, f.name, f.help, kindName(f.kind)); err != nil {
		return err
	}
	for i, k := range keys {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		switch c := children[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n",
				f.name, labelString(f.labels, values, "", ""), c.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.name, labelString(f.labels, values, "", ""), formatFloat(c.Value())); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHistogram(w, f.name, f.labels, values, c.Snapshot()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, labels, values []string, s HistogramSnapshot) error {
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := formatFloat(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(labels, values, "le", le), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(labels, values, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, labelString(labels, values, "", ""), formatFloat(s.Sum)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
		name, labelString(labels, values, "", ""), s.Count); err != nil {
		return err
	}
	// Exemplars render as plain comments: text-format 0.0.4 has no
	// exemplar syntax, and scrapers skip every # line that is not
	// HELP/TYPE, so the trace link is visible to humans without
	// breaking any parser.
	if s.Exemplar != nil {
		if _, err := fmt.Fprintf(w, "# EXEMPLAR %s%s trace_id=%s value=%s\n",
			name, labelString(labels, values, "", ""),
			s.Exemplar.TraceID, formatFloat(s.Exemplar.Value)); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// labelString renders `{a="x",b="y"}` (empty string when there are no
// labels); extra/extraVal append one more pair (the histogram `le`).
func labelString(labels, values []string, extra, extraVal string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
