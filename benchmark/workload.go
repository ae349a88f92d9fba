package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

// ownRows is how many PART rows each serve.mixed client owns at the start
// of a repetition; inserts and deletes alternate, so it stays within one.
const ownRows = 8

// missBase keeps every generated price literal above every PART.price.
const missBase = 1000

// queryFn sends one query and returns the reply's row count.
type queryFn func(src string) (rows int, err error)

// instance is one freshly set-up copy of a workload's system under test.
type instance struct {
	w     *workload
	st    *storage.Store // nil when the engine runs in a child
	eng   *server.Engine
	child *child
	own   [][]ownRow // writes: the rows each client starts with
}

type ownRow struct {
	oid  value.OID
	name string
}

// newStore generates a workload's store the way adlserve generates its own.
func newStore(cfg bench.Config, indexed bool) (*storage.Store, error) {
	st := bench.Generate(cfg)
	if indexed {
		if err := st.CreateIndex("PART", "color", storage.HashIndex); err != nil {
			return nil, err
		}
		if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
			return nil, err
		}
	}
	st.Analyze()
	return st, nil
}

// ownPart is a PART row no query of the read cycle selects: its colour is
// not red and its price is not below 10, so pinned row counts hold while
// the clients insert, update and delete.
func ownPart(name string, n int) *value.Tuple {
	return value.NewTuple(
		"pname", value.String(name),
		"price", value.Int(int64(500+n%100)),
		"color", value.String("white"),
	)
}

// setUp builds the store, engine (or child) and warms the plan cache and
// column projections. Its duration is the setup_s metric.
func (w *workload) setUp(ctx context.Context, r *run) (*instance, error) {
	in := &instance{w: w}
	if w.http {
		c, err := startChild(ctx, r.adlserve)
		if err != nil {
			return nil, err
		}
		in.child = c
	} else {
		st, err := newStore(r.store, w.indexed)
		if err != nil {
			return nil, err
		}
		in.st, in.eng = st, server.New(st, w.opts)
	}
	if w.writes {
		in.own = make([][]ownRow, w.clients)
		for c := range in.own {
			for n := 0; n < ownRows; n++ {
				name := fmt.Sprintf("bench-%d-seed-%d", c, n)
				oid, err := in.eng.Insert("PART", ownPart(name, n))
				if err != nil {
					in.close()
					return nil, err
				}
				in.own[c] = append(in.own[c], ownRow{oid, name})
			}
		}
	}
	if !w.miss {
		query := in.queryFn()
		for _, q := range w.queries() {
			if _, err := query(q.src); err != nil {
				in.close()
				return nil, fmt.Errorf("warm %s: %w", q.name, err)
			}
		}
	}
	return in, nil
}

func (in *instance) close() {
	if in.child != nil {
		in.child.stop()
	}
}

// queryFn returns a client's way to the engine: a call, or its own
// keep-alive connection to the child.
func (in *instance) queryFn() queryFn {
	if in.child != nil {
		return in.child.queryFn()
	}
	return func(src string) (int, error) {
		res, err := in.eng.Query(src)
		if err != nil {
			return 0, err
		}
		return res.Set.Len(), nil
	}
}

type opKind int

const (
	opRead opKind = iota
	opInsert
	opUpdate
	opDelete
)

// schedule is a client's op sequence, fixed by the run's seed, the
// repetition and the client's index.
type schedule struct {
	w     *workload
	rng   *rand.Rand
	order []int // a permutation of the read cycle, reshuffled at every wrap
	pos   int
	kinds []opKind // writes: 7 reads and one of each write, reshuffled likewise
	kpos  int
	k     int64 // miss: last price literal used
}

func newSchedule(w *workload, seed int64, rep, id int) *schedule {
	s := &schedule{
		w:   w,
		rng: rand.New(rand.NewSource(seed*7919 + int64(rep)*101 + int64(id))),
		k:   missBase + seed%1000*1_000_000 + int64(id)*100_000,
	}
	s.order = make([]int, len(w.cycle))
	for i := range s.order {
		s.order[i] = i
	}
	if w.writes {
		s.kinds = []opKind{opInsert, opUpdate, opDelete, opRead, opRead, opRead, opRead, opRead, opRead, opRead}
	}
	return s
}

// nextRead returns the next query of the cycle, with its literal filled in.
// Every pass over the cycle runs each slot once, in a fresh order: a query's
// latency depends on what ran before it (whose garbage is being collected),
// and this way a window samples every succession whatever the seed.
func (s *schedule) nextRead() (query, string) {
	if s.pos == 0 {
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	q := s.w.cycle[s.order[s.pos]]
	s.pos = (s.pos + 1) % len(s.order)
	if !s.w.miss {
		return q, q.src
	}
	s.k++
	return q, fmt.Sprintf(q.src, s.k)
}

func (s *schedule) nextKind() opKind {
	if s.kinds == nil {
		return opRead
	}
	if s.kpos == 0 {
		s.rng.Shuffle(len(s.kinds), func(i, j int) { s.kinds[i], s.kinds[j] = s.kinds[j], s.kinds[i] })
	}
	k := s.kinds[s.kpos]
	s.kpos = (s.kpos + 1) % len(s.kinds)
	return k
}

// client is one closed-loop caller.
type client struct {
	*schedule
	in     *instance
	id     int
	query  queryFn
	pinned map[string]int

	own              []ownRow
	deleted          []string
	inserts, deletes int
	named            int

	lat []float64 // us per op
	outcome
}

func newClient(in *instance, r *run, rep, id int) *client {
	c := &client{schedule: newSchedule(in.w, r.seed, rep, id),
		in: in, id: id, query: in.queryFn(), pinned: r.pinned}
	if in.w.writes {
		c.own = append(c.own, in.own[id]...)
	}
	return c
}

// step runs one op and records its latency and outcome.
func (c *client) step() {
	switch kind := c.nextKind(); kind {
	case opRead:
		q, src := c.nextRead()
		t0 := time.Now()
		rows, err := c.query(src)
		c.lat = append(c.lat, us(time.Since(t0)))
		if want := c.pinned[q.name]; err != nil || rows != want { // no formatting on the good path
			c.check(false, "%s: %d rows, pinned %d (%v)", q.name, rows, want, err)
		} else {
			c.attempted++
		}
	default:
		t0 := time.Now()
		err := c.write(kind)
		c.lat = append(c.lat, us(time.Since(t0)))
		if err != nil {
			c.check(false, "write: %v", err)
		} else {
			c.attempted++
		}
	}
}

// write mutates one of the client's own PART rows through the engine.
func (c *client) write(kind opKind) error {
	eng := c.in.eng
	switch kind {
	case opInsert:
		c.named++
		name := fmt.Sprintf("bench-%d-%d", c.id, c.named)
		oid, err := eng.Insert("PART", ownPart(name, c.named))
		if err != nil {
			return err
		}
		c.own = append(c.own, ownRow{oid, name})
		c.inserts++
	case opUpdate:
		row := c.own[c.rng.Intn(len(c.own))]
		return eng.Update("PART", row.oid, ownPart(row.name, c.rng.Intn(100)))
	case opDelete:
		row := c.own[0]
		if err := eng.Delete("PART", row.oid); err != nil {
			return err
		}
		c.own = c.own[1:]
		c.deleted = append(c.deleted, row.name)
		c.deletes++
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// window is the outcome of one timed repetition.
type window struct {
	opsPerS float64
	lat     []float64 // ascending
	outcome
}

// timedWindow runs the instance's clients for d and, with the clients
// quiesced, checks what they wrote.
func timedWindow(in *instance, r *run, rep int, d time.Duration) window {
	clients := make([]*client, in.w.clients)
	for i := range clients {
		clients[i] = newClient(in, r, rep, i)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var win window
	for _, c := range clients {
		win.lat = append(win.lat, c.lat...)
		win.add(c.outcome)
	}
	sort.Float64s(win.lat)
	win.opsPerS = float64(len(win.lat)) / elapsed.Seconds()
	if in.w.writes {
		err := checkWrites(in, r.store.Parts, clients)
		win.check(err == nil, "%v", err)
	}
	return win
}

// checkWrites verifies, on a snapshot taken after the clients stopped, that
// every row a client still owns is in PART exactly once, every row it
// deleted is gone, and the extent's size is initial + inserts - deletes.
func checkWrites(in *instance, parts int, clients []*client) error {
	sn := in.st.Snapshot()
	defer sn.Release()
	part, err := sn.Table("PART")
	if err != nil {
		return err
	}
	seen := map[string]int{}
	for _, el := range part.Elems() {
		name, _ := el.(*value.Tuple).Get("pname")
		if s, ok := name.(value.String); ok && strings.HasPrefix(string(s), "bench-") {
			seen[string(s)]++
		}
	}
	want := in.w.clients * ownRows
	for _, c := range clients {
		want += c.inserts - c.deletes
		for _, row := range c.own {
			if seen[row.name] != 1 {
				return fmt.Errorf("consistency: live row %s present %d times", row.name, seen[row.name])
			}
		}
		for _, name := range c.deleted {
			if seen[name] != 0 {
				return fmt.Errorf("consistency: deleted row %s still present", name)
			}
		}
	}
	if got := part.Len() - parts; got != want {
		return fmt.Errorf("consistency: %d own rows in PART, want %d", got, want)
	}
	return nil
}
