// Command adlserve is the long-lived query server: it populates (or loads) a
// supplier-part store, then serves OOSQL queries and mutations over HTTP.
// Queries execute against MVCC snapshots pinned per request — a query sees
// exactly the mutations published before it started, never a torn state —
// and plan through a prepared-plan cache keyed on (query, stats epoch), with
// re-plan on epoch drift and runtime cardinality feedback: cached executions
// run instrumented, and a plan whose estimates drift past the q-error
// threshold is evicted and re-planned against fresh statistics.
//
//	adlserve -addr :8080 -suppliers 400 -parts 800 -deliveries 200
//
// Endpoints:
//
//	POST /query   {"query": "...", "verify": false, "result": false}
//	              → {"cache_hit", "epoch", "evicted", "replanned", ["result"], "rows", "seq"}
//	              result, when asked for, is the result set's canonical text
//	              (Set.String()) as one JSON string
//	POST /insert  {"extent": "PART", "object": {tagged value JSON}}
//	              → {"oid"}
//	POST /delete  {"extent": "PART", "oid": 7}
//	              → {"deleted"}
//	POST /update  {"extent": "PART", "oid": 7, "object": {tagged value JSON}}
//	              → {"updated"}
//	GET  /metrics → engine counters, stats epoch, store I/O meters
//	GET  /healthz → ok
//
// The object payloads use the same tagged encoding as store snapshots
// (internal/value JSON codec); an update's object must not carry the id
// field. With -verify-all every query is differentially checked against a
// serial re-execution of the untransformed nested form on the same pinned
// snapshot. POST bodies are capped at 1 MiB and the listener has read and
// idle timeouts.
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/storage"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		suppliers  = flag.Int("suppliers", 400, "generated SUPPLIER rows")
		parts      = flag.Int("parts", 800, "generated PART rows")
		deliveries = flag.Int("deliveries", 200, "generated DELIVERY rows")
		seed       = flag.Int64("seed", 94, "generator seed")
		noCache    = flag.Bool("no-plan-cache", false, "plan every query from scratch (A/B baseline)")
		noFeedback = flag.Bool("no-feedback", false, "disable runtime cardinality feedback eviction")
		verifyAll  = flag.Bool("verify-all", false, "differentially verify every query against a serial re-execution")
		indexes    = flag.Bool("indexes", true, "create hash indexes on PART.color and PART.price")
	)
	flag.Parse()

	st := bench.Generate(bench.Config{
		Suppliers: *suppliers, Parts: *parts, Deliveries: *deliveries, Seed: *seed,
	})
	if *indexes {
		if err := st.CreateIndex("PART", "color", storage.HashIndex); err != nil {
			log.Fatalf("adlserve: %v", err)
		}
		if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
			log.Fatalf("adlserve: %v", err)
		}
	}
	st.Analyze()
	eng := server.New(st, server.Options{
		NoPlanCache: *noCache, NoFeedback: *noFeedback,
	})

	log.Printf("adlserve: listening on %s (%d suppliers, %d parts, %d deliveries, plan cache %v, feedback %v)",
		*addr, *suppliers, *parts, *deliveries, !*noCache, !*noFeedback)
	if err := newServer(*addr, newMux(eng, *verifyAll)).ListenAndServe(); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}
