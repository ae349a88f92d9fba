package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/oosql"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/value"
)

const (
	probeRounds = 20  // storage probe: insert, read, update, delete, GC per round
	httpProbes  = 200 // most HTTP round trips a traced run pairs with in-process calls
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the enclosing span, 0 for none. Times are ns since the trace
// began.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent})
	t.spans[len(t.spans)-1].Start = time.Since(t.t0).Nanoseconds()
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// in times one call as a span and returns its duration in us.
func (t *tracer) in(name string, op, parent int, f func()) float64 {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
	return float64(t.spans[id-1].End-t.spans[id-1].Start) / 1e3
}

// perOp sums, for every op that has a span of that name, the durations of
// those spans in us. A layer entered twice by one op (pin and release of a
// snapshot) is charged once, with both.
func (t *tracer) perOp(name string) map[int]float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += float64(s.End-s.Start) / 1e3
		}
	}
	return sums
}

func values(m map[int]float64) []float64 {
	v := make([]float64, 0, len(m))
	for _, x := range m {
		v = append(v, x)
	}
	sort.Float64s(v)
	return v
}

// share is one layer's part of the request path of a workload.
type share struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us_per_op"`
	Share  float64 `json:"share"`
}

// prepared is the replay's own plan-cache entry.
type prepared struct {
	epoch uint64
	pl    *plan.Plan
}

// replayer walks one request through the engine's public functions in the
// order Engine.Query calls them, with a span around each.
type replayer struct {
	st    *storage.Store
	opts  server.Options
	tr    *tracer
	cache map[string]*prepared
	// Per-op observations that are not durations.
	counts map[string][]float64
}

func (rp *replayer) count(name string, v float64) {
	rp.counts[name] = append(rp.counts[name], v)
}

// replay is Engine.Query by hand. The stages the engine runs are children
// of a "replay" span; CloneTree (the path feedback-less engines take) and
// Set.String (adlserve's reply) are timed beside it.
func (rp *replayer) replay(op int, src string) (*value.Set, error) {
	tr := rp.tr
	root := tr.begin("replay", op, 0)
	defer tr.end(root)

	var sn *storage.Snapshot
	tr.in("storage.snapshot", op, root, func() { sn = rp.st.Snapshot() })
	defer tr.in("storage.snapshot", op, root, sn.Release)

	p := rp.cache[src]
	if p == nil || p.epoch != sn.StatsEpoch() {
		var (
			stats *storage.DBStats
			ast   oosql.Expr
			res   *rewrite.Result
			err   error
		)
		tr.in("storage.analyze", op, root, func() { stats = rp.st.Analyze() })
		tr.in("oosql.parse", op, root, func() { ast, err = oosql.Parse(src) })
		if err != nil {
			return nil, err
		}
		id := tr.begin("translate.translate", op, root)
		e, _, err := translate.Translate(ast, rp.st.Catalog())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.in("rewrite.optimize", op, root, func() { res = rewrite.Optimize(e, rewrite.NewContext(rp.st.Catalog())) })
		cfg := plan.Config{Statistics: stats, Stats: stats,
			Parallelism: rp.opts.Parallelism, Vectorized: rp.opts.Vectorized}
		p = &prepared{epoch: sn.StatsEpoch()}
		tr.in("plan.plan", op, root, func() { p.pl = cfg.Plan(res.Expr) })
		rp.cache[src] = p
		rp.count("rewrite.steps", float64(len(res.Trace)))
		rp.count("rewrite.nested_after", float64(res.NestedAfter))
	}

	var (
		tree   exec.Operator
		commit func()
		set    *value.Set
		err    error
		m0, m1 runtime.MemStats
	)
	tr.in("exec.instrument", op, root, func() { tree, commit = p.pl.Instrumented() })
	io0 := rp.st.Stats()
	runtime.ReadMemStats(&m0)
	tr.in("exec.collect", op, root, func() { set, err = exec.Collect(tree, &exec.Ctx{DB: sn}) })
	runtime.ReadMemStats(&m1)
	io1 := rp.st.Stats()
	if err != nil {
		return nil, err
	}
	rp.count("exec.rows_out", float64(set.Len()))
	rp.count("exec.allocs_per_op", float64(m1.Mallocs-m0.Mallocs))
	rp.count("exec.bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc))
	rp.count("storage.page_reads", float64(io1.PageReads-io0.PageReads))
	rp.count("storage.index_probes", float64(io1.IndexProbes-io0.IndexProbes))
	rp.count("storage.objects_read", float64(io1.ObjectReads-io0.ObjectReads))

	q := 1.0 // no node's estimate and observation both reach the row floor
	tr.in("plan.feedback", op, root, func() {
		commit()
		if d, ok := p.pl.Feedback(rp.opts.FeedbackMinRows); ok {
			q = d.Q
		}
	})
	rp.count("plan.q_error", q)
	if q > plan.DefaultFeedbackThreshold {
		delete(rp.cache, src) // the engine would also advance the epoch; the replay leaves the store alone
	}

	tr.in("exec.clone", op, 0, func() { exec.CloneTree(p.pl.Root) })
	tr.in("value.serialize", op, 0, func() { _ = set.String() })
	return set, nil
}

var writeSpans = map[opKind]string{opInsert: "storage.insert", opUpdate: "storage.update", opDelete: "storage.delete"}

// stages are the replay spans Engine.Query covers.
var stages = []string{"storage.snapshot", "storage.analyze", "oosql.parse", "translate.translate",
	"rewrite.optimize", "plan.plan", "exec.instrument", "exec.collect", "plan.feedback"}

// tracedRun produces the per-layer metrics: single client, fixed op count.
// Each read op is run twice, as one Engine.Query call and as a hand replay
// through the layers; a storage probe and an HTTP probe follow, so that
// every layer is measured on every workload's store and queries.
func tracedRun(ctx context.Context, r *run) *document {
	doc, o := newDocument(r, true), &outcome{}
	if !prepare(ctx, r, true, o) {
		return doc.finish(o)
	}
	local := *r.w
	local.http = false // the child's engine, in this process
	in, err := local.setUp(ctx, r)
	if err != nil {
		o.check(false, "set-up: %v", err)
		return doc.finish(o)
	}
	nOps := r.w.traceOps
	if r.quick {
		nOps /= 4
	}
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, nOps*16)}
	rp := &replayer{st: in.st, opts: r.w.opts, tr: tr, cache: map[string]*prepared{}, counts: map[string][]float64{}}
	c := newClient(in, r, 0, 0)
	opQuery := map[int]string{}

	// Untraced pass: the same ops, timed the way the timed run times them.
	var untraced []float64
	for i := 0; i < nOps; i++ {
		if kind := c.nextKind(); kind != opRead {
			o.check(c.write(kind) == nil, "untraced write failed")
			continue
		}
		_, src := c.nextRead()
		t0 := time.Now()
		_, err := in.eng.Query(src)
		untraced = append(untraced, us(time.Since(t0)))
		o.check(err == nil, "untraced query: %v", err)
	}

	m0 := in.eng.Metrics()
	for i := 0; i < nOps && ctx.Err() == nil; i++ {
		kind := c.nextKind()
		if kind != opRead {
			var err error
			tr.in(writeSpans[kind], i, 0, func() { err = c.write(kind) })
			o.check(err == nil, "traced write: %v", err)
			continue
		}
		q, src := c.nextRead()
		opQuery[i] = q.name
		whole := func() {
			var res *server.Result
			var err error
			tr.in("server.query", i, 0, func() { res, err = in.eng.Query(src) })
			o.check(err == nil && res.Set.Len() == r.pinned[q.name], "traced %s: wrong reply (%v)", q.name, err)
		}
		replay := func() {
			set, err := rp.replay(i, src)
			o.check(err == nil && set.Len() == r.pinned[q.name], "replayed %s: wrong reply (%v)", q.name, err)
		}
		// Alternate, so that neither half always finds the other's data warm.
		if i%2 == 0 {
			whole()
			replay()
		} else {
			replay()
			whole()
		}
	}
	m1 := in.eng.Metrics()

	storageProbe(in.st, tr, nOps, rp)
	httpUs := httpProbe(ctx, r, tr, nOps+probeRounds, o)
	if err := writeTrace(r, tr); err != nil {
		o.check(false, "trace.json: %v", err)
	}

	query := tr.perOp("server.query")
	self, layerUs := requestPath(tr, nOps)
	if r.w.http {
		for _, d := range tr.perOp("value.serialize") {
			layerUs["value"] += d
		}
		layerUs["adlserve"] = median(httpUs) * float64(len(query))
	}
	doc.Shares = shares(layerUs, nOps)

	requests := float64(m1.CacheHits - m0.CacheHits + m1.CacheMiss - m0.CacheMiss + m1.Replans - m0.Replans)
	observed := map[string][]float64{
		"server.self_us":            values(self),
		"server.cache_hit_ratio":    {float64(m1.CacheHits-m0.CacheHits) / max(requests, 1)},
		"server.replans":            {float64(m1.Replans - m0.Replans)},
		"server.feedback_evictions": {float64(m1.FeedbackEvictions - m0.FeedbackEvictions)},
		"adlserve.http_us":          httpUs,
		// Same ops, same stopwatch: what the replay and its bookkeeping between
		// the calls cost the engine (cold caches, heap growth).
		"trace.overhead_us": {median(values(query)) - median(untraced)},
	}
	for _, m := range perLayer {
		v, ok := observed[m.Name]
		switch spanName, timed := strings.CutSuffix(m.Name, "_us"); {
		case ok:
		case timed: // a duration metric is its span's name + "_us"
			v = values(tr.perOp(spanName))
		default:
			v = rp.counts[m.Name]
		}
		doc.Metrics = append(doc.Metrics, newSample(m.Name, m.Unit, v))
	}

	// Per-query execution time: which query a change to exec moved.
	byQuery := map[string][]float64{}
	for op, d := range tr.perOp("exec.collect") {
		byQuery[opQuery[op]] = append(byQuery[opQuery[op]], d)
	}
	for _, q := range r.w.queries() {
		doc.Diagnostics = append(doc.Diagnostics, newSample("exec."+q.name+"_us", "us", byQuery[q.name]))
	}
	return doc.finish(o)
}

// requestPath charges the request ops' time to layers. self is, op by op,
// what Engine.Query takes beyond the stages it calls, against the replay of
// the same op; it is the server layer's part.
func requestPath(tr *tracer, nOps int) (self map[int]float64, layerUs map[string]float64) {
	self = tr.perOp("server.query")
	layerUs = map[string]float64{}
	for _, name := range stages {
		for op, d := range tr.perOp(name) {
			if _, ok := self[op]; ok {
				self[op] -= d
				layerUs[layerOf(name)] += d
			}
		}
	}
	for _, d := range self {
		layerUs["server"] += d
	}
	for _, name := range writeSpans {
		for op, d := range tr.perOp(name) {
			if op < nOps {
				layerUs["storage"] += d
			}
		}
	}
	return self, layerUs
}

func layerOf(spanName string) string {
	layer, _, _ := strings.Cut(spanName, ".")
	return layer
}

func shares(layerUs map[string]float64, ops int) []share {
	var total float64
	for _, d := range layerUs {
		total += d
	}
	out := make([]share, 0, len(layerUs))
	for layer, d := range layerUs {
		out = append(out, share{Layer: layer, SelfUs: d / float64(ops), Share: d / total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUs > out[j].SelfUs })
	return out
}

// storageProbe times the write path and what a write makes the next reader
// pay, on the workload's own store: insert, re-publish statistics, first
// Table and column projection of the new version, update, delete, GC.
func storageProbe(st *storage.Store, tr *tracer, firstOp int, rp *replayer) {
	for n := 0; n < probeRounds; n++ {
		op := firstOp + n
		name := "probe-" + strconv.Itoa(n)
		var oid value.OID
		var gc storage.GCStats
		tr.in("storage.insert", op, 0, func() { oid, _ = st.Insert("PART", ownPart(name, n)) })
		tr.in("storage.analyze_dirty", op, 0, func() { st.Analyze() })
		sn := st.Snapshot()
		tr.in("storage.table", op, 0, func() { _, _ = sn.Table("PART") })
		tr.in("storage.colproj", op, 0, func() { _, _ = sn.ColProj("PART", []string{"pname", "price", "color"}) })
		sn.Release()
		tr.in("storage.update", op, 0, func() { _ = st.Update("PART", oid, ownPart(name, n+1)) })
		tr.in("storage.delete", op, 0, func() { _ = st.Delete("PART", oid) })
		tr.in("storage.gc", op, 0, func() { gc = st.GC() })
		rp.count("storage.gc_pruned", float64(gc.PrunedStates+gc.RemovedObjects+gc.PrunedIndexOIDs+gc.DroppedMaterializations))
	}
}

// httpProbe prices the serving boundary for the workload's queries: each is
// posted to an adlserve child and run through Engine.Query and Set.String
// on a store generated from the same flags; the round trip minus the two
// in-process calls is what net/http and JSON cost.
func httpProbe(ctx context.Context, r *run, tr *tracer, firstOp int, o *outcome) []float64 {
	cfg := bench.Config{Suppliers: r.store.Suppliers, Parts: r.store.Parts, Deliveries: r.store.Deliveries}
	c, err := startChild(ctx, r.adlserve,
		"-suppliers", strconv.Itoa(cfg.Suppliers), "-parts", strconv.Itoa(cfg.Parts),
		"-deliveries", strconv.Itoa(cfg.Deliveries), "-indexes="+strconv.FormatBool(r.w.indexed))
	if err != nil {
		o.check(false, "http probe: %v", err)
		return nil
	}
	defer c.stop()
	st, err := newStore(cfg, r.w.indexed)
	if err != nil {
		o.check(false, "http probe: %v", err)
		return nil
	}
	twin := server.New(st, server.Options{})
	post := c.queryFn()
	texts := newSchedule(r.w, r.seed, 0, 1) // client 1's literals: no text the passes above used

	if !r.w.miss { // warm both plan caches; an error here comes back below
		for _, q := range r.w.queries() {
			_, _ = post(q.src)
			_, _ = twin.Query(q.src)
		}
	}
	n := min(r.w.traceOps, httpProbes)
	if r.quick {
		n /= 4
	}
	var httpUs []float64
	for i := 0; i < n && ctx.Err() == nil; i++ {
		q, src := texts.nextRead()
		op := firstOp + i
		var remote, local int
		var errRemote, errLocal error
		var roundTrip, inProcess float64
		rt := func() {
			roundTrip = tr.in("adlserve.roundtrip", op, 0, func() { remote, errRemote = post(src) })
		}
		twinCalls := func() {
			var res *server.Result
			inProcess = tr.in("twin.query", op, 0, func() { res, errLocal = twin.Query(src) })
			if errLocal == nil {
				local = res.Set.Len()
				inProcess += tr.in("twin.serialize", op, 0, func() { _ = res.Set.String() })
			}
		}
		if i%2 == 0 {
			rt()
			twinCalls()
		} else {
			twinCalls()
			rt()
		}
		o.check(errRemote == nil && errLocal == nil && remote == local,
			"http probe %s: child %d rows (%v), in-process %d rows (%v)", q.name, remote, errRemote, local, errLocal)
		httpUs = append(httpUs, roundTrip-inProcess)
	}
	return httpUs
}

// writeTrace writes the spans of the run to out/trace.json.
func writeTrace(r *run, tr *tracer) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.w.name, r.seed, tr.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("out", "trace.json"), raw, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
