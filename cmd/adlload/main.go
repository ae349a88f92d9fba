// Command adlload is the closed-loop load driver for the serving layer: N
// concurrent clients each issue a mixed stream of OOSQL reads and PART
// mutations — inserts, deletes, updates — as fast as the engine answers,
// for a fixed duration. It reports p50/p99 latency and sustained QPS; it is
// a correctness driver first (make serve-smoke), and wall-clock serving
// numbers between commits come from benchmark/ (serve.* workloads).
//
// By default the driver runs in-process: it builds the store, wraps it in
// the serving engine, and drives it directly — this is the mode CI runs
// under -race, and the mode that can differentially verify reads. A
// fraction of reads (-verify-frac) re-execute the untransformed nested form
// serially against the same pinned snapshot and fail the run on any
// mismatch — the reads-under-writes linearizability arm: under concurrent
// mutations, a pinned snapshot must answer exactly as it would have with
// the world stopped. The same fraction drives sampled read-your-writes
// verification: each client tracks the parts it inserted (delete and update
// only ever touch a client's own rows, so no cross-client dangling) and
// spot-checks that a part it just wrote is visible with exactly the
// attributes it wrote — and that a part it deleted is gone. Any mismatch is
// a divergence, reported separately and failing the run.
//
// With -addr the driver targets a running adlserve over HTTP instead.
//
// With -compare-cache the workload runs twice on identical fresh stores —
// plan cache on, then off — after first asserting both engines return
// identical results for every query in the pool; -assert additionally fails
// the run unless the cached arm wins on p50.
//
//	adlload -clients 1000 -duration 5s -insert-frac 0.2 -delete-frac 0.05 -update-frac 0.05
//	adlload -compare-cache -assert
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

// queryPool is the read mix: equality and range selections an index can
// serve, a full scan, and two of the paper's join-shaped example queries
// (the §4 semijoin and select-clause nesting) so the cache holds plans the
// optimizer actually had to think about.
var queryPool = []struct{ name, src string }{
	{"red-parts", `select p.pname from p in PART where p.color = "red"`},
	{"cheap-parts", `select p.pname from p in PART where p.price < 10`},
	{"all-suppliers", `select s.sname from s in SUPPLIER`},
	{"semijoin", `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`},
	{"nested-select", `select (sname = s.sname,
        pnames = select p.pname from p in s.parts_supplied where p.color = "red")
 from s in SUPPLIER`},
}

var partColors = []string{"red", "green", "blue"}

type config struct {
	clients    int
	duration   time.Duration
	insertFrac float64
	deleteFrac float64
	updateFrac float64
	verifyFrac float64
	seed       int64
}

// client issues one operation against either the in-process engine or a
// remote adlserve.
type client interface {
	query(src string, verify bool) error
	// count executes a query and returns its row count (for read-your-writes
	// verification).
	count(src string) (int, error)
	insert(t *value.Tuple) (value.OID, error)
	del(oid value.OID) error
	update(oid value.OID, t *value.Tuple) error
}

type localClient struct{ eng *server.Engine }

func (c localClient) query(src string, verify bool) error {
	var err error
	if verify {
		_, err = c.eng.QueryVerified(src)
	} else {
		_, err = c.eng.Query(src)
	}
	return err
}

func (c localClient) count(src string) (int, error) {
	res, err := c.eng.Query(src)
	if err != nil {
		return 0, err
	}
	return res.Set.Len(), nil
}

func (c localClient) insert(t *value.Tuple) (value.OID, error) {
	return c.eng.Insert("PART", t)
}

func (c localClient) del(oid value.OID) error {
	return c.eng.Delete("PART", oid)
}

func (c localClient) update(oid value.OID, t *value.Tuple) error {
	return c.eng.Update("PART", oid, t)
}

type httpClient struct {
	base string
	hc   *http.Client
}

// post sends a JSON request and decodes the JSON reply.
func (c httpClient) post(path string, body any) (map[string]any, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, msg)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return out, nil
}

func (c httpClient) query(src string, verify bool) error {
	_, err := c.post("/query", map[string]any{"query": src, "verify": verify})
	return err
}

func (c httpClient) count(src string) (int, error) {
	out, err := c.post("/query", map[string]any{"query": src})
	if err != nil {
		return 0, err
	}
	n, ok := out["rows"].(float64)
	if !ok {
		return 0, fmt.Errorf("/query reply lacks rows: %v", out)
	}
	return int(n), nil
}

func (c httpClient) insert(t *value.Tuple) (value.OID, error) {
	enc, err := value.EncodeJSON(t)
	if err != nil {
		return 0, err
	}
	out, err := c.post("/insert", map[string]any{"extent": "PART", "object": json.RawMessage(enc)})
	if err != nil {
		return 0, err
	}
	oid, ok := out["oid"].(float64)
	if !ok {
		return 0, fmt.Errorf("/insert reply lacks oid: %v", out)
	}
	return value.OID(oid), nil
}

func (c httpClient) del(oid value.OID) error {
	_, err := c.post("/delete", map[string]any{"extent": "PART", "oid": uint64(oid)})
	return err
}

func (c httpClient) update(oid value.OID, t *value.Tuple) error {
	enc, err := value.EncodeJSON(t)
	if err != nil {
		return err
	}
	_, err = c.post("/update", map[string]any{
		"extent": "PART", "oid": uint64(oid), "object": json.RawMessage(enc)})
	return err
}

func partTuple(name string, price int64, color string) *value.Tuple {
	return value.NewTuple(
		"pname", value.String(name),
		"price", value.Int(price),
		"color", value.String(color),
	)
}

// ownedPart is one row a client inserted itself, with the attributes it
// last wrote — the expectation read-your-writes verification checks.
type ownedPart struct {
	oid   value.OID
	name  string
	price int64
	color string
}

// opCounts tallies one client's operations.
type opCounts struct {
	reads, writes, deletes, updates, verified, selfChecks int
}

// runResult aggregates one closed-loop run.
type runResult struct {
	ops         int
	counts      opCounts
	p50, p99    time.Duration
	qps         float64
	elapsed     time.Duration
	errs        []error
	divergences []string
}

// run drives cfg.clients concurrent closed loops against mk's client for
// cfg.duration.
func run(cfg config, mk func() client) runResult {
	var wg sync.WaitGroup
	lats := make([][]time.Duration, cfg.clients)
	errs := make([][]error, cfg.clients)
	divs := make([][]string, cfg.clients)
	counts := make([]opCounts, cfg.clients)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := mk()
			rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
			var mine []ownedPart
			var graveyard []string // names of parts this client deleted
			for n := 0; time.Now().Before(deadline); n++ {
				t0 := time.Now()
				var err error
				r := rng.Float64()
				switch {
				case r < cfg.insertFrac:
					name := fmt.Sprintf("load-part-%d", int64(i)<<32|int64(n))
					price := rng.Int63n(100) + 1
					color := partColors[rng.Intn(len(partColors))]
					var oid value.OID
					if oid, err = cl.insert(partTuple(name, price, color)); err == nil {
						mine = append(mine, ownedPart{oid: oid, name: name, price: price, color: color})
					}
					counts[i].writes++
				case r < cfg.insertFrac+cfg.deleteFrac && len(mine) > 0:
					j := rng.Intn(len(mine))
					if err = cl.del(mine[j].oid); err == nil {
						graveyard = append(graveyard, mine[j].name)
						if len(graveyard) > 32 {
							graveyard = graveyard[1:]
						}
						mine[j] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
					counts[i].deletes++
				case r < cfg.insertFrac+cfg.deleteFrac+cfg.updateFrac && len(mine) > 0:
					j := rng.Intn(len(mine))
					price := rng.Int63n(100) + 1
					color := partColors[rng.Intn(len(partColors))]
					if err = cl.update(mine[j].oid, partTuple(mine[j].name, price, color)); err == nil {
						mine[j].price, mine[j].color = price, color
					}
					counts[i].updates++
				default:
					q := queryPool[rng.Intn(len(queryPool))]
					verify := rng.Float64() < cfg.verifyFrac
					err = cl.query(q.src, verify)
					counts[i].reads++
					if verify {
						counts[i].verified++
					}
				}
				lats[i] = append(lats[i], time.Since(t0))
				if err != nil {
					errs[i] = append(errs[i], err)
					continue
				}
				// Sampled read-your-writes verification: this client's writes
				// are sequential and publish before returning, so a query
				// pinned now must see exactly its last write (or, for a
				// deleted part, nothing). Other clients never touch these
				// rows — names and oids are client-private.
				if rng.Float64() < cfg.verifyFrac {
					counts[i].selfChecks++
					div, verr := verifySelf(cl, rng, mine, graveyard)
					if verr != nil {
						errs[i] = append(errs[i], verr)
					} else if div != "" {
						divs[i] = append(divs[i], div)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res runResult
	res.elapsed = elapsed
	var all []time.Duration
	for i := range lats {
		all = append(all, lats[i]...)
		res.errs = append(res.errs, errs[i]...)
		res.divergences = append(res.divergences, divs[i]...)
		res.counts.reads += counts[i].reads
		res.counts.writes += counts[i].writes
		res.counts.deletes += counts[i].deletes
		res.counts.updates += counts[i].updates
		res.counts.verified += counts[i].verified
		res.counts.selfChecks += counts[i].selfChecks
	}
	res.ops = len(all)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		res.p50 = all[len(all)/2]
		res.p99 = all[len(all)*99/100]
		res.qps = float64(len(all)) / elapsed.Seconds()
	}
	return res
}

// verifySelf spot-checks one of the client's own rows: a live part must be
// visible with exactly the attributes last written (one row — names are
// unique); a deleted part must be invisible. It returns a divergence
// description (empty when consistent) or a transport/query error.
func verifySelf(cl client, rng *rand.Rand, mine []ownedPart, dead []string) (string, error) {
	if len(mine) > 0 && (len(dead) == 0 || rng.Intn(2) == 0) {
		p := mine[rng.Intn(len(mine))]
		src := fmt.Sprintf(
			`select q.pname from q in PART where q.pname = %q and q.price = %d and q.color = %q`,
			p.name, p.price, p.color)
		n, err := cl.count(src)
		if err != nil {
			return "", err
		}
		if n != 1 {
			return fmt.Sprintf("part %s: want 1 row with price=%d color=%s, saw %d rows",
				p.name, p.price, p.color, n), nil
		}
	} else if len(dead) > 0 {
		name := dead[rng.Intn(len(dead))]
		src := fmt.Sprintf(`select q.pname from q in PART where q.pname = %q`, name)
		n, err := cl.count(src)
		if err != nil {
			return "", err
		}
		if n != 0 {
			return fmt.Sprintf("deleted part %s still visible: %d rows", name, n), nil
		}
	}
	return "", nil
}

func (r runResult) report(label string, cfg config) {
	c := r.counts
	fmt.Printf("%-12s %d clients, %v: %d ops (%d reads, %d inserts, %d deletes, %d updates, %d verified, %d self-checks) — p50 %v, p99 %v, %.0f ops/s, %d errors, %d divergences\n",
		label, cfg.clients, r.elapsed.Round(time.Millisecond), r.ops,
		c.reads, c.writes, c.deletes, c.updates, c.verified, c.selfChecks,
		r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond), r.qps,
		len(r.errs), len(r.divergences))
	for i, err := range r.errs {
		if i >= 5 {
			fmt.Printf("  ... %d more errors\n", len(r.errs)-5)
			break
		}
		fmt.Printf("  error: %v\n", err)
	}
	for i, d := range r.divergences {
		if i >= 5 {
			fmt.Printf("  ... %d more divergences\n", len(r.divergences)-5)
			break
		}
		fmt.Printf("  DIVERGENCE: %s\n", d)
	}
}

func buildEngine(suppliers, parts, deliveries int, seed int64, noCache bool) *server.Engine {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, Deliveries: deliveries, Seed: seed})
	if err := st.CreateIndex("PART", "color", storage.HashIndex); err != nil {
		fatal(err)
	}
	if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
		fatal(err)
	}
	st.Analyze()
	return server.New(st, server.Options{NoPlanCache: noCache, Parallelism: 1})
}

// assertEqualResults proves the two engines (plan cache on/off) answer every
// pool query identically over identical stores, before any mutation diverges
// them — the "equal results" leg of the plan-cache claim.
func assertEqualResults(a, b *server.Engine) {
	for _, q := range queryPool {
		ra, err := a.QueryVerified(q.src)
		if err != nil {
			fatal(fmt.Errorf("compare %s (cached engine): %w", q.name, err))
		}
		rb, err := b.QueryVerified(q.src)
		if err != nil {
			fatal(fmt.Errorf("compare %s (uncached engine): %w", q.name, err))
		}
		if ra.Set.Len() != rb.Set.Len() || !ra.Set.SubsetOf(rb.Set) {
			fatal(fmt.Errorf("compare %s: cached engine returned %d rows, uncached %d",
				q.name, ra.Set.Len(), rb.Set.Len()))
		}
	}
	fmt.Printf("result equivalence: %d pool queries identical across cached/uncached engines (differentially verified)\n",
		len(queryPool))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "adlload: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		clients      = flag.Int("clients", 1000, "concurrent closed-loop clients")
		duration     = flag.Duration("duration", 5*time.Second, "run duration")
		insertFrac   = flag.Float64("insert-frac", 0.2, "fraction of operations that insert a PART")
		deleteFrac   = flag.Float64("delete-frac", 0, "fraction of operations that delete one of the client's own parts")
		updateFrac   = flag.Float64("update-frac", 0, "fraction of operations that update one of the client's own parts")
		verifyFrac   = flag.Float64("verify-frac", 0.02, "fraction of reads differentially verified, and of operations followed by a read-your-writes self-check")
		addr         = flag.String("addr", "", "drive a running adlserve at this base URL (e.g. http://localhost:8080) instead of in-process")
		suppliers    = flag.Int("suppliers", 400, "generated SUPPLIER rows (in-process)")
		parts        = flag.Int("parts", 800, "generated PART rows (in-process)")
		deliveries   = flag.Int("deliveries", 200, "generated DELIVERY rows (in-process)")
		seed         = flag.Int64("seed", 94, "workload seed")
		noCache      = flag.Bool("no-plan-cache", false, "disable the plan cache (in-process)")
		compareCache = flag.Bool("compare-cache", false, "run the workload twice, plan cache on and off, and compare p50")
		assertWin    = flag.Bool("assert", false, "exit non-zero unless the cached arm wins p50 in -compare-cache (and on any error always)")
	)
	flag.Parse()

	cfg := config{
		clients:    *clients,
		duration:   *duration,
		insertFrac: *insertFrac,
		deleteFrac: *deleteFrac,
		updateFrac: *updateFrac,
		verifyFrac: *verifyFrac,
		seed:       *seed,
	}
	if cfg.insertFrac+cfg.deleteFrac+cfg.updateFrac > 1 {
		fatal(fmt.Errorf("insert/delete/update fractions sum past 1"))
	}
	failed := false
	bad := func(r runResult) bool { return len(r.errs) > 0 || len(r.divergences) > 0 }

	switch {
	case *addr != "":
		hc := &http.Client{Timeout: 30 * time.Second}
		res := run(cfg, func() client { return httpClient{base: *addr, hc: hc} })
		res.report("http", cfg)
		failed = bad(res)

	case *compareCache:
		cached := buildEngine(*suppliers, *parts, *deliveries, *seed, false)
		uncached := buildEngine(*suppliers, *parts, *deliveries, *seed, true)
		assertEqualResults(cached, uncached)
		resCached := run(cfg, func() client { return localClient{eng: cached} })
		resCached.report("plancache", cfg)
		resUncached := run(cfg, func() client { return localClient{eng: uncached} })
		resUncached.report("replan", cfg)
		m := cached.Metrics()
		fmt.Printf("plan cache: %d hits, %d misses, %d epoch-drift replans, %d feedback evictions\n",
			m.CacheHits, m.CacheMiss, m.Replans, m.FeedbackEvictions)
		speedup := float64(resUncached.p50) / float64(resCached.p50)
		fmt.Printf("p50 plancache %v vs replan %v (%.2fx)\n",
			resCached.p50.Round(time.Microsecond), resUncached.p50.Round(time.Microsecond), speedup)
		failed = bad(resCached) || bad(resUncached)
		if *assertWin && resCached.p50 > resUncached.p50 {
			fmt.Fprintln(os.Stderr, "adlload: ASSERT FAILED: plan-cache arm lost on p50")
			failed = true
		}

	default:
		eng := buildEngine(*suppliers, *parts, *deliveries, *seed, *noCache)
		res := run(cfg, func() client { return localClient{eng: eng} })
		label := "plancache"
		if *noCache {
			label = "replan"
		}
		res.report(label, cfg)
		m := eng.Metrics()
		fmt.Printf("plan cache: %d hits, %d misses, %d epoch-drift replans, %d feedback evictions; store at seq %d, stats epoch %d\n",
			m.CacheHits, m.CacheMiss, m.Replans, m.FeedbackEvictions, m.Seq, m.StatsEpoch)
		failed = bad(res)
	}

	if failed {
		os.Exit(1)
	}
}
