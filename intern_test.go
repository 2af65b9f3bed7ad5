// White-box tests for the task intern table: a repeated inline document
// is parsed once and decides exactly like a fresh parse, malformed
// documents are never stored, the table stays within its bound, and
// interned tasks stay unchanged by everything that runs over them.
package qasom

import (
	"context"
	"fmt"
	"hash/maphash"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qasom/internal/bpel"
	"qasom/internal/core"
	"qasom/internal/obs"
	"qasom/internal/qos"
)

const internShop = `<process name="shopA" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

// internShopReflowed is internShop with different whitespace: an
// equivalent document under a different intern key.
const internShopReflowed = `<process name="shopA"   concept="Shopping"><sequence>
<invoke activity="browse" concept="BrowseCatalog"/>  <invoke activity="order" concept="OrderItem"/>
		<invoke activity="pay" concept="Payment"/></sequence></process>`

const internShopB = `<process name="shopB" concept="Shopping">
  <sequence>
    <invoke activity="fulfil" concept="Shopping"/>
    <invoke activity="mpay" concept="MobilePayment"/>
  </sequence>
</process>`

// internMall builds a middleware over a small shopping environment with
// the shopA/shopB task class registered.
func internMall(t *testing.T) *Middleware {
	t.Helper()
	mw, err := New(Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ prefix, capability string }{
		{"browse", "BrowseCatalog"},
		{"order", "OrderItem"},
		{"pay", "CardPayment"},
		{"fulfil", "Shopping"},
		{"mpay", "MobilePayment"},
	} {
		for i := 0; i < 4; i++ {
			err := mw.Publish(Service{
				ID:         fmt.Sprintf("%s-%d", s.prefix, i),
				Capability: s.capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5 + float64(i),
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mw.RegisterTaskClass("shopping", internShop, internShopB); err != nil {
		t.Fatal(err)
	}
	return mw
}

type decision struct {
	Bindings map[string]string
	Utility  float64
	Feasible bool
}

func decisionOf(res *core.Result) decision {
	d := decision{Bindings: make(map[string]string), Utility: res.Utility, Feasible: res.Feasible}
	for act, c := range res.Assignment {
		d.Bindings[act] = string(c.Service.ID)
	}
	return d
}

func compositionDecision(c *Composition) decision {
	return decision{Bindings: c.Bindings(), Utility: c.Utility(), Feasible: c.Feasible()}
}

// reparsedDecision is the parse-every-time reference: a fresh parse of
// doc, fresh candidate lookup and a fresh QASSA run.
func reparsedDecision(t *testing.T, mw *Middleware, doc string, cs []qos.Constraint) decision {
	t.Helper()
	tk, err := bpel.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	req := &core.Request{Task: tk, Properties: mw.props, Constraints: cs, Approach: qos.Pessimistic}
	cands, err := core.GatherCandidates(context.Background(), tk, mw.reg, mw.props)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mw.selector.Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	return decisionOf(res)
}

func TestInternRepeatedDocumentMatchesReparse(t *testing.T) {
	for _, cacheSize := range []int{0, -1} {
		t.Run(fmt.Sprintf("plancache=%d", cacheSize), func(t *testing.T) {
			mw := internMall(t)
			mw.plans = newPlanCache(cacheSize, obs.NewRegistry())
			cs := []qos.Constraint{{Property: "responseTime", Bound: 300}}
			req := Request{Task: internShop, Constraints: []Constraint{{Property: "responseTime", Bound: 300}}}
			want := reparsedDecision(t, mw, internShop, cs)
			var first *taskEntry
			for i := 0; i < 20; i++ {
				c, err := mw.Compose(req)
				if err != nil {
					t.Fatal(err)
				}
				if got := compositionDecision(c); !reflect.DeepEqual(got, want) {
					t.Fatalf("compose %d: %+v, parse-every-time reference %+v", i, got, want)
				}
				te, err := mw.resolveTask(internShop)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = te
				} else if te != first {
					t.Fatalf("compose %d re-parsed the document", i)
				}
			}
			if n := mw.tasks.len(); n != 1 {
				t.Fatalf("intern table holds %d entries, want 1", n)
			}

			// An equivalent document with other whitespace is another
			// key but the same task: equal fingerprint, equal decision.
			c, err := mw.Compose(Request{Task: internShopReflowed, Constraints: req.Constraints})
			if err != nil {
				t.Fatal(err)
			}
			if got := compositionDecision(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("reflowed document: %+v, want %+v", got, want)
			}
			if got := reparsedDecision(t, mw, internShopReflowed, cs); !reflect.DeepEqual(got, want) {
				t.Fatalf("reflowed reference %+v, want %+v", got, want)
			}
			te, _ := mw.resolveTask(internShopReflowed)
			if te == first || te.id != first.id {
				t.Fatalf("reflowed entry %p id %s, original %p id %s: want a distinct entry with the same fingerprint",
					te, te.id, first, first.id)
			}
			if cacheSize == 0 && !c.SelectionStats().CacheHit {
				t.Error("the reflowed document has the same plan key and should hit the plan cache")
			}
		})
	}
}

func TestInternMalformedNeverStored(t *testing.T) {
	mw := internMall(t)
	const bad = `<process name="broken" concept="Shopping"><sequence>`
	var first string
	for i := 0; i < 5; i++ {
		_, err := mw.Compose(Request{Task: bad})
		if err == nil {
			t.Fatalf("call %d: malformed document composed", i)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("call %d: error %q, first call %q", i, err, first)
		}
		if n := mw.tasks.len(); n != 0 {
			t.Fatalf("call %d: malformed document interned (%d entries)", i, n)
		}
		if mw.tasks.lookup(bad) != nil {
			t.Fatalf("call %d: lookup finds the malformed document", i)
		}
	}
}

func TestInternBounded(t *testing.T) {
	mw := internMall(t)
	const bound = 2 * internGenSize
	docs := make([]string, 10*bound)
	for i := range docs {
		docs[i] = strings.Replace(internShop, `name="shopA"`, fmt.Sprintf(`name="bound-%d"`, i), 1)
	}
	for i, doc := range docs {
		if _, err := mw.resolveTask(doc); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 || i == len(docs)-1 {
			if n := mw.tasks.len(); n > bound {
				t.Fatalf("after %d documents the table holds %d entries, bound %d", i+1, n, bound)
			}
		}
	}
	// The most recent generation's worth of documents stays resident.
	for _, doc := range docs[len(docs)-internGenSize:] {
		if mw.tasks.lookup(doc) == nil {
			t.Fatal("a recently interned document was dropped")
		}
	}
	// A promoted old-generation hit survives the next rotation.
	g := mw.tasks.gens.Load()
	var oldDoc string
	for _, doc := range docs[len(docs)-2*internGenSize:] {
		if g.old.find(maphash.String(mw.tasks.seed, doc), doc) != nil {
			oldDoc = doc
			break
		}
	}
	if oldDoc == "" {
		t.Fatal("no document in the old generation")
	}
	if mw.tasks.lookup(oldDoc) == nil {
		t.Fatal("old-generation document not found")
	}
	for i := 0; i < internGenSize; i++ {
		mw.tasks.store(fmt.Sprintf("filler-%d", i), &taskEntry{})
	}
	if mw.tasks.lookup(oldDoc) == nil {
		t.Fatal("a promoted old-generation hit was dropped by the next rotation")
	}
}

// TestConcurrentInternCompose composes one inline document from many
// goroutines while others intern enough distinct documents to rotate
// the generations underneath them. Run under -race.
func TestConcurrentInternCompose(t *testing.T) {
	mw := internMall(t)
	req := Request{Task: internShop, Constraints: []Constraint{{Property: "responseTime", Bound: 300}}}
	want := reparsedDecision(t, mw, internShop, []qos.Constraint{{Property: "responseTime", Bound: 300}})
	const composers, churners, rounds = 4, 2, 50
	var wg sync.WaitGroup
	wg.Add(composers + churners)
	for g := 0; g < composers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c, err := mw.Compose(req)
				if err != nil {
					t.Error(err)
					return
				}
				if got := compositionDecision(c); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent compose: %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	for g := 0; g < churners; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < internGenSize; i++ {
				doc := strings.Replace(internShop, `name="shopA"`, fmt.Sprintf(`name="churn-%d-%d"`, g, i), 1)
				if _, err := mw.resolveTask(doc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := mw.tasks.len(); n > 2*internGenSize {
		t.Fatalf("table holds %d entries, bound %d", n, 2*internGenSize)
	}
}

// TestInternedTaskUnchangedByExecute runs an execution that substitutes
// services and one that switches behaviour over a composition of an
// interned document; the interned task must come out untouched.
func TestInternedTaskUnchangedByExecute(t *testing.T) {
	mw := internMall(t)
	defer mw.Close()
	comp, err := mw.Compose(Request{Task: internShop})
	if err != nil {
		t.Fatal(err)
	}
	te := mw.tasks.lookup(internShop)
	if te == nil {
		t.Fatal("document not interned")
	}
	fp, rendered := te.task.Fingerprint(), te.task.String()
	if te.id != obs.HexID(fp) {
		t.Fatalf("entry id %s, fingerprint %016x", te.id, fp)
	}

	// Take the bound order service down: the execution substitutes.
	mw.Withdraw(comp.Bindings()["order"])
	report, err := mw.Execute(context.Background(), comp)
	if err != nil {
		t.Fatal(err)
	}
	if report.Substitutions == 0 {
		t.Fatalf("no substitution: %+v", report)
	}
	// Take every order service down: the next execution switches to
	// shopB.
	for i := 0; i < 4; i++ {
		mw.Withdraw(fmt.Sprintf("order-%d", i))
	}
	report, err = mw.Execute(context.Background(), comp)
	if err != nil {
		t.Fatal(err)
	}
	if report.BehaviourSwitches == 0 || comp.Behaviour() != "shopB" {
		t.Fatalf("no behaviour switch: %+v, behaviour %s", report, comp.Behaviour())
	}
	if got := te.task.Fingerprint(); got != fp {
		t.Fatalf("interned fingerprint moved: %016x → %016x", fp, got)
	}
	if got := te.task.String(); got != rendered {
		t.Fatalf("interned task changed: %s → %s", rendered, got)
	}
	if again, _ := mw.resolveTask(internShop); again != te {
		t.Fatal("the document was re-interned")
	}
	// The execute record names the running behaviour, not the entry.
	recs := mw.obs.Flight.Snapshot(obs.FlightQuery{})
	last := recs[len(recs)-1]
	if last.Kind != "execute" || last.Task == te.id || last.Task != fmt.Sprintf("%016x", comp.runtime.Behaviour().Fingerprint()) {
		t.Fatalf("execute record task %q (kind %s), entry %s", last.Task, last.Kind, te.id)
	}
}

// TestInternFollowsReregisteredBehaviours: a behaviour name resolves
// through the task-class repository on every call, so re-registering the
// class replaces what the name composes, and a name the class dropped
// no longer resolves.
func TestInternFollowsReregisteredBehaviours(t *testing.T) {
	mw := internMall(t)
	before, err := mw.Compose(Request{Task: "shopA"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before.Bindings()["order"]; !ok {
		t.Fatalf("shopA bindings %v lack order", before.Bindings())
	}
	replaced := strings.Replace(internShop, `activity="order" concept="OrderItem"`, `activity="fulfil" concept="Shopping"`, 1)
	if err := mw.RegisterTaskClass("shopping", replaced, internShopB); err != nil {
		t.Fatal(err)
	}
	after, err := mw.Compose(Request{Task: "shopA"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := after.Bindings()["fulfil"]; !ok {
		t.Fatalf("re-registered shopA bindings %v lack fulfil", after.Bindings())
	}
	if err := mw.RegisterTaskClass("shopping", internShopB); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Compose(Request{Task: "shopA"}); err == nil {
		t.Fatal("a behaviour name the class dropped still composes")
	}
}
