package value

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// model is the reference tuple: a plain name list beside a value list, every
// operation a linear scan that re-checks its preconditions — what Tuple was
// before rows shared shapes.
type model struct {
	names []string
	vals  []Value
}

func (m model) get(name string) (Value, bool) {
	if i := slices.Index(m.names, name); i >= 0 {
		return m.vals[i], true
	}
	return nil, false
}

func (m model) with(name string, v Value) (model, bool) {
	if slices.Contains(m.names, name) {
		return model{}, false
	}
	return model{append(slices.Clone(m.names), name), append(slices.Clone(m.vals), v)}, true
}

func (m model) concat(u model) (model, bool) {
	for i, n := range u.names {
		var ok bool
		if m, ok = m.with(n, u.vals[i]); !ok {
			return model{}, false
		}
	}
	return m, true
}

func (m model) subscript(attrs []string) (model, bool) {
	var out model
	for _, a := range attrs {
		v, ok := m.get(a)
		if !ok {
			return model{}, false
		}
		if out, ok = out.with(a, v); !ok {
			return model{}, false
		}
	}
	return out, true
}

func (m model) drop(attrs []string) model {
	var out model
	for i, n := range m.names {
		if !slices.Contains(attrs, n) {
			out.names, out.vals = append(out.names, n), append(out.vals, m.vals[i])
		}
	}
	return out
}

func (m model) except(u model) model {
	out := model{slices.Clone(m.names), slices.Clone(m.vals)}
	for i, n := range u.names {
		if j := slices.Index(out.names, n); j >= 0 {
			out.vals[j] = u.vals[i]
		} else {
			out.names, out.vals = append(out.names, n), append(out.vals, u.vals[i])
		}
	}
	return out
}

func (m model) equal(u model) bool {
	if len(m.names) != len(u.names) {
		return false
	}
	for i, n := range m.names {
		if v, ok := u.get(n); !ok || !Equal(m.vals[i], v) {
			return false
		}
	}
	return true
}

// build constructs the model's tuple by the one route that derives nothing
// from another tuple: NewTuple.
func (m model) build() *Tuple {
	pairs := make([]any, 0, 2*len(m.names))
	for i, n := range m.names {
		pairs = append(pairs, n, m.vals[i])
	}
	return NewTuple(pairs...)
}

// checkAgainstModel holds a tuple reached by any route to its model: same
// names and values slot by slot, the canonical shape, and Equal, Hash,
// Compare, String and EncodeJSON indistinguishable from the reference
// implementations and from the NewTuple-built twin.
func checkAgainstModel(t *testing.T, step string, got *Tuple, m model) {
	t.Helper()
	if !slices.Equal(got.Names(), m.names) {
		t.Fatalf("%s: names %v, model %v", step, got.Names(), m.names)
	}
	for i, v := range m.vals {
		if n, gv := got.At(i); n != m.names[i] || !Equal(gv, v) {
			t.Fatalf("%s: slot %d = %s=%v, model %s=%v", step, i, n, gv, m.names[i], v)
		}
		if slot, ok := got.Slot(m.names[i]); !ok || slot != i {
			t.Fatalf("%s: Slot(%q) = %d, %v; want %d", step, m.names[i], slot, ok, i)
		}
	}
	twin := m.build()
	if got.Shape != twin.Shape {
		t.Fatalf("%s: shape of %v is not the canonical shape of its name list", step, got)
	}
	if !Equal(got, twin) || !Equal(twin, got) || Compare(got, twin) != 0 {
		t.Fatalf("%s: %v and its NewTuple twin %v differ", step, got, twin)
	}
	if h := Hash(got); h != refHash(got) || h != Hash(twin) {
		t.Fatalf("%s: Hash(%v) = %#x, reference %#x, twin %#x", step, got, h, refHash(got), Hash(twin))
	}
	if s := got.String(); s != refString(got) || s != twin.String() {
		t.Fatalf("%s: String %q, reference %q, twin %q", step, s, refString(got), twin.String())
	}
	gj, err1 := EncodeJSON(got)
	tj, err2 := EncodeJSON(twin)
	if err1 != nil || err2 != nil || !bytes.Equal(gj, tj) {
		t.Fatalf("%s: EncodeJSON %s (%v), twin %s (%v)", step, gj, err1, tj, err2)
	}
}

// TestTupleModel drives random NewTuple/With/Concat/Subscript/Drop/Except
// sequences over a small name domain — so conflicts, repeats, missing
// attributes and equal name lists reached by different routes all occur —
// against the reference model.
func TestTupleModel(t *testing.T) {
	names := []string{"a", "b", "ab", "c", "é", "parts"}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		someNames := func() []string {
			out := make([]string, r.Intn(4))
			for i := range out {
				out[i] = names[r.Intn(len(names))] // repeats on purpose
			}
			return out
		}
		tuples, models := []*Tuple{EmptyTuple()}, []model{{}}
		for step := 0; step < 300; step++ {
			i, j := r.Intn(len(tuples)), r.Intn(len(tuples))
			tu, m := tuples[i], models[i]
			var got *Tuple
			var want model
			ok := true
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch r.Intn(6) {
			case 0:
				want = model{}
				for _, n := range someNames() {
					if next, fresh := want.with(n, genValue(r, 2)); fresh {
						want = next
					}
				}
				got = want.build()
			case 1:
				var err error
				n, v := names[r.Intn(len(names))], genValue(r, 2)
				want, ok = m.with(n, v)
				if got, err = tu.With(n, v); (err == nil) != ok {
					t.Fatalf("%s: With(%q) on %v: err %v, model ok %v", label, n, tu, err, ok)
				}
			case 2:
				var err error
				want, ok = m.concat(models[j])
				if got, err = tu.Concat(tuples[j]); (err == nil) != ok {
					t.Fatalf("%s: %v ∘ %v: err %v, model ok %v", label, tu, tuples[j], err, ok)
				}
			case 3:
				var err error
				attrs := someNames()
				want, ok = m.subscript(attrs)
				if got, err = tu.Subscript(attrs); (err == nil) != ok {
					t.Fatalf("%s: %v%v: err %v, model ok %v", label, tu, attrs, err, ok)
				}
			case 4:
				attrs := someNames()
				want, got = m.drop(attrs), tu.Drop(attrs)
				if s := tu.Shape.Drop(attrs); s != got.Shape {
					t.Fatalf("%s: Shape.Drop(%v) of %v is %v, Tuple.Drop's shape %v", label, attrs, tu, s.Names(), got.Names())
				}
			case 5:
				want, got = m.except(models[j]), tu.Except(tuples[j])
			}
			if !ok {
				continue
			}
			checkAgainstModel(t, label, got, want)
			for k, other := range tuples {
				if eq := Equal(got, other); eq != want.equal(models[k]) {
					t.Fatalf("%s: Equal(%v, %v) = %v, the model disagrees", label, got, other, eq)
				}
				if c := Compare(got, other); sign(c) != sign(refCompare(got, other)) {
					t.Fatalf("%s: Compare(%v, %v) = %d, reference %d", label, got, other, c, refCompare(got, other))
				}
			}
			if len(tuples) < 40 {
				tuples, models = append(tuples, got), append(models, want)
			} else {
				tuples[i], models[i] = got, want
			}
		}
	}
}

func TestSubscriptRejectsRepeatedAttribute(t *testing.T) {
	tu := NewTuple("a", Int(1), "b", Int(2))
	for i := 0; i < 2; i++ { // the rejection is not memoized into an acceptance
		if got, err := tu.Subscript([]string{"a", "a"}); err == nil {
			t.Fatalf("(a=1, b=2)[a, a] = %v, want an error", got)
		}
	}
	if got, err := tu.Subscript([]string{"b", "a"}); err != nil || got.String() != "(b=2, a=1)" {
		t.Fatalf("(a=1, b=2)[b, a] = %v, %v", got, err)
	}
}

// TestShapeDerivationConcurrent has 8 goroutines derive the same cold
// transitions at once: all must arrive at the same shapes, and deriving them
// again must mint none.
func TestShapeDerivationConcurrent(t *testing.T) {
	const workers = 8
	prefix := fmt.Sprintf("cold%d-", ShapeCount()) // names no other test used
	derive := func() []*Shape {
		var out []*Shape
		base := NewTuple(prefix+"k", Int(1))
		for i := 0; i < 20; i++ {
			n := fmt.Sprintf("%s%d", prefix, i%5)
			w, err := base.With(n, Int(2))
			if err != nil {
				t.Error(err)
				return nil
			}
			c, err := w.Concat(NewTuple(prefix+"x", Int(3), prefix+"y", Int(4)))
			if err != nil {
				t.Error(err)
				return nil
			}
			s, err := c.Subscript([]string{n, prefix + "y"})
			if err != nil {
				t.Error(err)
				return nil
			}
			d := c.Drop([]string{prefix + "k", prefix + "x"})
			e := w.Except(NewTuple(n, Int(5), prefix+"z", Int(6)))
			out = append(out, w.Shape, c.Shape, s.Shape, d.Shape, e.Shape)
			if s.Shape != d.Shape {
				t.Errorf("[n, y] by subscript and by drop are different shapes")
			}
		}
		return out
	}
	results := make([][]*Shape, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = derive()
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(results[w], results[0]) {
			t.Fatalf("goroutine %d derived different shapes than goroutine 0", w)
		}
	}
	before := ShapeCount()
	if again := derive(); !slices.Equal(again, results[0]) || ShapeCount() != before {
		t.Fatalf("re-deriving warm transitions minted %d shapes", ShapeCount()-before)
	}
}

// TestDerivedTuplesShareNoSlots: With, Except, Concat, Subscript and Drop
// build their result in slots of its own, never in the source's — a tuple
// allocated with its slots is still one value per allocation — and
// Shape.Alloc hands out exactly the slots of the tuple it returns.
func TestDerivedTuplesShareNoSlots(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 12} {
		pairs := make([]any, 0, 2*n)
		for i := range n {
			pairs = append(pairs, fmt.Sprintf("a%d", i), Int(int64(i)))
		}
		src := NewTuple(pairs...)
		cat, err := src.Concat(NewTuple("z", Int(-2)))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := src.Subscript([]string{"a0"})
		if err != nil {
			t.Fatal(err)
		}
		with, err := src.With("z", Int(-1))
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*Tuple{
			"With":      with,
			"Except":    src.Except(NewTuple("a0", Int(-1))),
			"Concat":    cat,
			"Subscript": sub,
			"Drop":      src.Drop([]string{"a0"}),
		} {
			for i := range d.Vals() {
				for j := range src.Vals() {
					if &d.Vals()[i] == &src.Vals()[j] {
						t.Fatalf("%s of a %d-attribute tuple: slot %d is the source's slot %d", name, n, i, j)
					}
				}
			}
		}
		if v := src.MustGet("a0"); !Equal(v, Int(0)) {
			t.Fatalf("deriving from a %d-attribute tuple changed a0 to %v", n, v)
		}
		tu, slots := src.Shape.Alloc()
		if len(slots) != n || &slots[0] != &tu.Vals()[0] || tu.Shape != src.Shape {
			t.Fatalf("Shape.Alloc of %d attributes: %d slots, not the tuple's", n, len(slots))
		}
	}
}

// TestBlockAlloc: a Block of n tuples hands out n tuples of its shape in two
// allocations for all of them, each with slots of its own that a write to its
// neighbour never reaches (capacity capped at the shape's width), and a
// tuple of its own once it is used up. Its tuples hash and compare like
// tuples built one at a time.
func TestBlockAlloc(t *testing.T) {
	for _, width := range []int{0, 1, 3, 9} {
		names := make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("a%d", i)
		}
		shape, err := ShapeOf(names)
		if err != nil {
			t.Fatal(err)
		}
		const n = 5
		var got []*Tuple
		if allocs := testing.AllocsPerRun(10, func() {
			b := shape.Block(n)
			got = got[:0]
			for range n {
				tu, _ := b.Alloc()
				got = append(got, tu)
			}
		}); width > 0 && allocs > 2 {
			t.Errorf("a block of %d tuples of width %d: %.0f allocations, want 2", n, width, allocs)
		}
		b := shape.Block(n)
		var rows []*Tuple
		for i := range n + 2 {
			tu, slots := b.Alloc()
			if tu.Shape != shape || len(slots) != width || cap(slots) != width {
				t.Fatalf("width %d, tuple %d: shape %v, %d slots of capacity %d", width, i, tu.Shape.Names(), len(slots), cap(slots))
			}
			for j := range slots {
				slots[j] = Int(int64(100*i + j))
			}
			rows = append(rows, tu)
		}
		for i, tu := range rows {
			one, slots := shape.Alloc()
			for j := range slots {
				slots[j] = Int(int64(100*i + j))
			}
			if !Equal(tu, one) || Hash(tu) != Hash(one) {
				t.Fatalf("width %d, tuple %d: %v from the block, %v built alone", width, i, tu, one)
			}
		}
	}
}
