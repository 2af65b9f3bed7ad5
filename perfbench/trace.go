package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Span names. A span is recorded around each call the benchmark makes
// into a layer's public functions; "replay" spans re-run a layer that
// the facade call already ran, on the same input, right after it.
const (
	spRequest = iota
	spCompose
	spExecute
	spCheck
	spParse
	spEpochs
	spClone
	spNewRuntime
	spGather
	spCandidates
	spSelect
	spLocal
	spGlobal
	spSubstitute
	spWrite
	spWithdraw
	spPublish
	numSpans
)

var spanNames = [numSpans]string{
	spRequest:    "request",
	spCompose:    "qasom.compose",
	spExecute:    "qasom.execute",
	spCheck:      "harness.check",
	spParse:      "bpel.parse",
	spEpochs:     "registry.epochs",
	spClone:      "core.clone",
	spNewRuntime: "adapt.new_runtime",
	spGather:     "core.gather",
	spCandidates: "registry.candidates",
	spSelect:     "core.select",
	spLocal:      "core.local",
	spGlobal:     "core.global",
	spSubstitute: "qasom.substitute",
	spWrite:      "write",
	spWithdraw:   "registry.withdraw",
	spPublish:    "registry.publish",
}

// span is one recorded interval. Times are nanoseconds from the run's
// clock origin; req is the id of the request's root span.
type span struct {
	id, parent, req uint64
	start, end      int64
	name            uint8
	replay          bool
}

// maxSpansPerClient bounds the spans kept in memory per client; later
// spans still feed the per-layer sums but are not written out.
const maxSpansPerClient = 1 << 16

// newID returns an id unique across clients: the client number sits in
// the top bits.
func (c *client) newID() uint64 {
	c.nextID++
	return uint64(c.id+1)<<48 | c.nextID
}

func (c *client) span(id, parent, req uint64, name int, start, end int64, replay bool) {
	c.acc[name].add(end - start)
	if len(c.spans) >= maxSpansPerClient {
		c.dropped++
		return
	}
	c.spans = append(c.spans, span{id: id, parent: parent, req: req, start: start, end: end, name: uint8(name), replay: replay})
}

type spanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, clients []*client) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close span file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range clients {
		for _, s := range c.spans {
			rec := spanRecord{ID: s.id, Parent: s.parent, Req: s.req, Name: spanNames[s.name], StartNs: s.start, EndNs: s.end, Replay: s.replay}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("write span: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("flush spans: %w", err)
	}
	return nil
}
