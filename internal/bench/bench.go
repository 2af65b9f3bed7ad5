// Package bench is the experiment harness that regenerates every table
// and figure of the thesis's evaluation (Chapter VI plus the Chapter V
// measurements): each experiment produces a text/CSV table with the same
// rows or series the paper reports. cmd/qasombench drives it from the
// command line; the root-level bench_test.go exposes each experiment as
// a testing.B benchmark. The experiment inventory lives in DESIGN.md and
// the recorded results in EXPERIMENTS.md.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"qasom/internal/obs"
)

// benchCtx is the context experiments execute pipeline calls under: it
// carries the process-wide telemetry hub, so `qasombench -metrics`
// dumps the counters and latency histograms the run produced.
func benchCtx() context.Context {
	return obs.WithHub(context.Background(), obs.Default())
}

// Config parameterises an experiment run.
type Config struct {
	// Quick shrinks sweeps to smoke-test size (used by `go test` and
	// `qasombench -quick`).
	Quick bool
	// Seed drives workload generation; 0 means 1.
	Seed int64
	// Repetitions per measured point; 0 means 3 (1 when Quick).
	Repetitions int
	// Ctx cancels long-running experiments early (qasombench wires the
	// SIGINT context here); experiments that honour it return their
	// partial table instead of losing the run. Nil means Background.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repetitions <= 0 {
		if c.Quick {
			c.Repetitions = 1
		} else {
			c.Repetitions = 3
		}
	}
	return c
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries free-form observations appended under the table.
	Notes []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3f", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-form note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are not needed
// for the harness's numeric/identifier cells).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment regenerates one paper artefact.
type Experiment struct {
	// ID is the harness identifier (e.g. "vi5a").
	ID string
	// Paper names the reproduced artefact (e.g. "Fig. VI.5(a)").
	Paper string
	// Title describes the experiment.
	Title string
	// Expected summarises the shape the paper reports (what "reproduced"
	// means).
	Expected string
	// Run executes the experiment.
	Run func(cfg Config) (*Table, error)
}

// experiments is the static inventory, assembled deterministically from
// the per-area constructors so no side-effectful init() is needed.
var experiments = func() map[string]*Experiment {
	m := make(map[string]*Experiment)
	for _, group := range [][]*Experiment{
		selectionExperiments(),
		aggregationExperiments(),
		distributionExperiments(),
		resilienceExperiments(),
		transformExperiments(),
		adaptationExperiments(),
		ablationExperiments(),
		baselineExperiments(),
		mobilityExperiments(),
		servingExperiments(),
		openloopExperiments(),
		paretoExperiments(),
	} {
		for _, e := range group {
			if _, dup := m[e.ID]; dup {
				panic("bench: duplicate experiment id " + e.ID)
			}
			m[e.ID] = e
		}
	}
	return m
}()

// Experiments lists the inventory sorted by ID.
func Experiments() []*Experiment {
	out := make([]*Experiment, 0, len(experiments))
	for _, e := range experiments {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns one experiment, or nil.
func ByID(id string) *Experiment { return experiments[id] }

// medianDuration runs f reps times and returns the median wall time.
func medianDuration(reps int, f func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// pick returns quick when cfg.Quick, full otherwise.
func pick[T any](cfg Config, quick, full T) T {
	if cfg.Quick {
		return quick
	}
	return full
}
