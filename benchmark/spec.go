package main

import (
	"repro/internal/bench"
	"repro/internal/server"
)

// metric declares one reported number. BENCHMARK.json repeats these
// declarations for the driver; bench_test.go keeps the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the engine sees. Bound is the share of the
// baseline median by which a metric may worsen before -compare says "worse".
// The bounds are as wide as the host makes them, not as tight as one would
// like: the 2-core sandbox drifts over minutes on workloads with a large
// working set. Two sets of ten runs of one commit, twenty minutes apart,
// differed on analytic.default by 10% in ops_per_s, 14% in p95_us and 13% in
// setup_s, and the ten runs of a set spread (inter-quartile, as a share of
// the median) by up to 14% on the analytic workloads; serve.* and plan.miss
// spread by 2-5% and moved by under 9%.
var endToEnd = []metric{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured by the traced run, from outside each module, and is
// named <module>.<what>. Every one is emitted on every workload.
var perLayer = []metric{
	{"oosql.parse_us", "us", "lower", 0},
	{"translate.translate_us", "us", "lower", 0},
	{"rewrite.optimize_us", "us", "lower", 0},
	{"rewrite.steps", "count", "lower", 0},
	{"rewrite.nested_after", "count", "lower", 0},
	{"plan.plan_us", "us", "lower", 0},
	{"plan.feedback_us", "us", "lower", 0},
	{"plan.q_error", "ratio", "lower", 0},
	{"exec.collect_us", "us", "lower", 0},
	{"exec.instrument_us", "us", "lower", 0},
	{"exec.clone_us", "us", "lower", 0},
	{"exec.rows_out", "count", "higher", 0},
	{"exec.allocs_per_op", "count", "lower", 0},
	{"exec.bytes_per_op", "B", "lower", 0},
	{"storage.snapshot_us", "us", "lower", 0},
	{"storage.analyze_us", "us", "lower", 0},
	{"storage.analyze_dirty_us", "us", "lower", 0},
	{"storage.table_us", "us", "lower", 0},
	{"storage.colproj_us", "us", "lower", 0},
	{"storage.insert_us", "us", "lower", 0},
	{"storage.update_us", "us", "lower", 0},
	{"storage.delete_us", "us", "lower", 0},
	{"storage.gc_us", "us", "lower", 0},
	{"storage.gc_pruned", "count", "higher", 0},
	{"storage.page_reads", "count", "lower", 0},
	{"storage.index_probes", "count", "lower", 0},
	{"storage.objects_read", "count", "lower", 0},
	{"server.query_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.replans", "count", "lower", 0},
	{"server.feedback_evictions", "count", "lower", 0},
	{"value.serialize_us", "us", "lower", 0},
	{"adlserve.http_us", "us", "lower", 0},
	{"trace.overhead_us", "us", "lower", 0},
}

// query is one OOSQL text; a plan.miss template holds one %d.
type query struct{ name, src string }

const (
	eq5 = `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`
	eq4 = `select s.eid from s in SUPPLIER
 where exists z in s.parts_supplied : not exists p in PART : z = p`
	eq6 = `select (sname = s.sname,
        pnames = select p.pname from p in PART where p in s.parts_supplied and p.color = "red")
 from s in SUPPLIER`
	materialize = `select (sname = s.sname,
        supplied = select p from p in PART where p in s.parts_supplied,
        cheap = count(select c from c in PART where c in s.parts_supplied and c.price < 50))
 from s in SUPPLIER`
	deliverySemi = `select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and d.date < 940105`
	deliveryJoin = `select (sname = d.supplier.sname, date = d.date)
 from d in DELIVERY where d.date < 940105`
)

// The percentiles are taken over all ops of a window, and the ops are a few
// queries of very different cost, so the latency distribution is a row of
// narrow modes. A percentile that falls between two modes jumps from one to
// the other on a handful of samples. Every cycle below therefore lists one
// query twice: with 7 (or 5) equal slots the median sits in the middle of
// the 4th (3rd) slot and p95 well inside the last one.
var (
	analyticCycle = []query{
		{"eq5-semijoin", eq5},
		{"eq4-antijoin", eq4},
		{"eq6-nestjoin", eq6},
		{"eq5-semijoin", eq5},
		{"materialize", materialize},
		{"delivery-semi", deliverySemi},
		{"delivery-join", deliveryJoin},
	}
	pointCycle = []query{
		{"red-parts", `select p.pname from p in PART where p.color = "red"`},
		{"cheap-parts", `select p.pname from p in PART where p.price < 10`},
		{"all-suppliers", `select s.sname from s in SUPPLIER`},
		{"red-parts", `select p.pname from p in PART where p.color = "red"`},
		{"eq5-semijoin", eq5},
	}
	// k is always above every PART.price, so a template's row count does not
	// depend on k and can be pinned.
	missCycle = []query{
		{"sel-k", `select p.pname from p in PART where p.price < %d`},
		{"eq5-k", `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.price = %d`},
		{"eq6-k", `select (sname = s.sname,
        pnames = select p.pname from p in PART where p in s.parts_supplied and p.price = %d)
 from s in SUPPLIER`},
		{"eq5-k", `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.price = %d`},
		{"nested3-k", `select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and
       exists y in d.supply : exists p in PART : y.part = p and p.price = %d`},
	}
)

// workload is one traffic mix. All loops are closed: a client sends its next
// op when the previous one has returned, as application code does.
type workload struct {
	name, why string
	store     bench.Config
	indexed   bool // hash index on PART.color, ordered index on PART.price
	opts      server.Options
	clients   int
	cycle     []query
	miss      bool // cycle holds templates; every op is a never-seen text
	writes    bool // 3 of 10 ops insert, update or delete the client's own PART rows
	http      bool // ops go to an adlserve child over loopback
	traceOps  int  // ops of the traced run
}

var (
	analyticStore = bench.Config{Suppliers: 4000, Parts: 8000, Deliveries: 20000,
		Fanout: 8, EmptyFrac: 0.05}
	serveStore = bench.Config{Suppliers: 400, Parts: 800, Deliveries: 200}
)

var workloads = []workload{
	{
		name:  "analytic.default",
		why:   "six paper-shaped nested queries at 2-36 ms each, all plan-cache hits: the scalar and tuple-parallel join operators do over 90% of the work",
		store: analyticStore, indexed: true, clients: 1, cycle: analyticCycle, traceOps: 56,
	},
	{
		name:  "analytic.vectorized",
		why:   "same store and queries with Options.Vectorized: batch kernels and column projections do the work the scalar joins do in analytic.default",
		store: analyticStore, indexed: true, opts: server.Options{Vectorized: true},
		clients: 1, cycle: analyticCycle, traceOps: 56,
	},
	{
		name:  "serve.point",
		why:   "adlserve's default store, 2 clients, cached 30-300 us reads: the fixed per-request path outweighs execution and planning does nothing",
		store: serveStore, indexed: true, clients: 2, cycle: pointCycle, traceOps: 2000,
	},
	{
		name:    "plan.miss",
		why:     "every request is a never-seen text on a tiny store: parse, translate, rewrite, plan and cache insert dominate; bypasses every exec optimisation",
		store:   bench.Config{Suppliers: 100, Parts: 200, Deliveries: 50},
		clients: 1, cycle: missCycle, miss: true, traceOps: 1000,
	},
	{
		name:  "serve.mixed",
		why:   "serve.point reads beside 30% inserts, updates and deletes: version chains, index and stats upkeep, replans and GC share the store with the readers",
		store: serveStore, indexed: true, clients: 2, cycle: pointCycle, writes: true, traceOps: 2000,
	},
	{
		name:  "serve.http",
		why:   "serve.point's ops posted to an adlserve child over 2 keep-alive connections: the difference to serve.point is net/http, JSON and Set.String",
		store: serveStore, indexed: true, clients: 2, cycle: pointCycle, http: true, traceOps: 2000,
	},
}

// queries lists the cycle's distinct queries.
func (w *workload) queries() []query {
	var out []query
	seen := map[string]bool{}
	for _, q := range w.cycle {
		if !seen[q.name] {
			seen[q.name] = true
			out = append(out, q)
		}
	}
	return out
}

// reducedStore is where planned results are compared with the quadratic
// nested-loop evaluator.
func reducedStore(c bench.Config) bench.Config {
	c.Suppliers, c.Parts, c.Deliveries = 60, 120, 40
	return c
}

// quickStore shrinks the analytic stores so that -quick stays a smoke test.
func quickStore(c bench.Config) bench.Config {
	if c.Suppliers > 1000 {
		c.Suppliers, c.Parts, c.Deliveries = c.Suppliers/4, c.Parts/4, c.Deliveries/4
	}
	return c
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
