package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestInventoryComplete(t *testing.T) {
	// Every paper artefact of the evaluation must have an experiment.
	want := []string{
		"qosagg", // Table IV.1
		"vi5a", "vi5b", "vi6a", "vi6b", "vi7", "vi8", "vi9",
		"vi10", "vi11", "vi12", "vi13",
		"v7", "adapt", "failover",
		"ablation-k", "ablation-global", "ablation-seeding", "ablation-preverify",
		"ablation-pareto", "baselines", "mobility",
		"serving",  // ROADMAP artefact: steady-state serving
		"openloop", // open-loop (arrival-rate driven) serving latency
		"pareto",   // multi-objective front quality (DESIGN.md §4j)
	}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %q missing from the inventory", id)
		}
	}
	if got := len(Experiments()); got < len(want) {
		t.Errorf("inventory has %d experiments, want ≥%d", got, len(want))
	}
	for _, e := range Experiments() {
		if e.Paper == "" || e.Title == "" || e.Expected == "" || e.Run == nil {
			t.Errorf("experiment %q is underspecified", e.ID)
		}
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds even in quick mode")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run(Config{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Fatalf("%s: row arity %d vs %d columns", e.ID, len(row), len(table.Columns))
				}
			}
			// Render paths must not panic and must include every row.
			text := table.String()
			if !strings.Contains(text, table.Columns[0]) {
				t.Error("text rendering lost the header")
			}
			csv := table.CSV()
			if got := strings.Count(csv, "\n"); got != len(table.Rows)+1 {
				t.Errorf("CSV has %d lines, want %d", got, len(table.Rows)+1)
			}
		})
	}
}

func TestExpectedShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full quick experiments")
	}
	t.Run("vi6a optimality above 85", func(t *testing.T) {
		t.Parallel()
		table, err := ByID("vi6a").Run(Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range table.Rows {
			opt, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatalf("bad optimality cell %q", row[1])
			}
			if opt < 85 {
				t.Errorf("optimality %.1f%% below 85%% at services=%s", opt, row[0])
			}
		}
	})
	t.Run("vi9 tracks the normal pdf near the mean", func(t *testing.T) {
		t.Parallel()
		table, err := ByID("vi9").Run(Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range table.Rows {
			center, _ := strconv.ParseFloat(row[0], 64)
			if center < 40 || center > 60 {
				continue
			}
			emp, _ := strconv.ParseFloat(row[1], 64)
			pdf, _ := strconv.ParseFloat(row[2], 64)
			if pdf == 0 {
				continue
			}
			if diff := emp - pdf; diff > 0.4*pdf || diff < -0.4*pdf {
				t.Errorf("bin %s: empirical %g vs pdf %g", row[0], emp, pdf)
			}
		}
	})
	t.Run("adapt scenarios all complete", func(t *testing.T) {
		t.Parallel()
		table, err := ByID("adapt").Run(Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range table.Rows {
			if row[1] != "true" {
				t.Errorf("scenario %s did not complete", row[0])
			}
		}
		// The capability-lost scenario must have switched behaviour.
		last := table.Rows[len(table.Rows)-1]
		if last[0] != "capability-lost" || last[3] == "0" {
			t.Errorf("capability-lost should force a behaviour switch: %v", last)
		}
	})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", "w")
	tb.AddNote("note %d", 7)
	s := tb.String()
	for _, want := range []string{"== demo ==", "a", "bb", "xyz", "2.500", "note: note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || c.Repetitions != 3 {
		t.Errorf("defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Repetitions != 1 {
		t.Errorf("quick repetitions = %d, want 1", q.Repetitions)
	}
}
