package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/storage"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := bench.Generate(bench.Config{Suppliers: 20, Parts: 50, Deliveries: 10, Seed: 94})
	st.Analyze()
	srv := httptest.NewServer(newMux(server.New(st, server.Options{Parallelism: 1}), false))
	t.Cleanup(srv.Close)
	return srv
}

// call POSTs a JSON body (or GETs when body is empty) and decodes the reply.
func call(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && method != http.MethodGet {
		t.Fatalf("decode reply: %v", err)
	}
	return resp.StatusCode, out
}

func TestServeQuery(t *testing.T) {
	srv := newTestServer(t)
	code, out := call(t, "POST", srv.URL+"/query",
		`{"query": "select p.pname from p in PART where p.color = \"red\"", "verify": true, "result": true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["rows"].(float64) <= 0 {
		t.Fatalf("no rows: %v", out)
	}
	if _, ok := out["result"]; !ok {
		t.Fatalf("result requested but absent: %v", out)
	}
	if _, ok := out["evicted"]; !ok {
		t.Fatalf("reply lacks the evicted flag: %v", out)
	}
	// Bad query text is a client error, not a 500.
	code, out = call(t, "POST", srv.URL+"/query", `{"query": "selec nonsense"}`)
	if code != http.StatusBadRequest || out["error"] == nil {
		t.Fatalf("bad query: status %d, %v", code, out)
	}
}

func TestServeInsertDeleteUpdate(t *testing.T) {
	srv := newTestServer(t)
	obj := `{"tuple": [["pname", {"str": "wrench"}], ["price", {"int": 7}], ["color", {"str": "teal"}]]}`
	code, out := call(t, "POST", srv.URL+"/insert", `{"extent": "PART", "object": `+obj+`}`)
	if code != http.StatusOK {
		t.Fatalf("insert: status %d, %v", code, out)
	}
	oid := uint64(out["oid"].(float64))

	countTeal := func() float64 {
		_, q := call(t, "POST", srv.URL+"/query",
			`{"query": "select p.pname from p in PART where p.color = \"teal\""}`)
		return q["rows"].(float64)
	}
	if n := countTeal(); n != 1 {
		t.Fatalf("inserted row invisible: %v teal rows", n)
	}

	upd := `{"tuple": [["pname", {"str": "wrench"}], ["price", {"int": 9}], ["color", {"str": "mauve"}]]}`
	code, out = call(t, "POST", srv.URL+"/update",
		fmt.Sprintf(`{"extent": "PART", "oid": %d, "object": %s}`, oid, upd))
	if code != http.StatusOK {
		t.Fatalf("update: status %d, %v", code, out)
	}
	if n := countTeal(); n != 0 {
		t.Fatalf("update left the old state visible: %v teal rows", n)
	}

	code, out = call(t, "POST", srv.URL+"/delete",
		fmt.Sprintf(`{"extent": "PART", "oid": %d}`, oid))
	if code != http.StatusOK {
		t.Fatalf("delete: status %d, %v", code, out)
	}
	// Deleting again fails: the object is dead.
	code, out = call(t, "POST", srv.URL+"/delete",
		fmt.Sprintf(`{"extent": "PART", "oid": %d}`, oid))
	if code != http.StatusBadRequest || out["error"] == nil {
		t.Fatalf("double delete: status %d, %v", code, out)
	}
}

func TestServeMalformedAndWrongMethod(t *testing.T) {
	srv := newTestServer(t)
	for _, ep := range []string{"/query", "/insert", "/delete", "/update"} {
		if code, out := call(t, "POST", srv.URL+ep, `{not json`); code != http.StatusBadRequest || out["error"] == nil {
			t.Errorf("POST %s with malformed body: status %d, %v", ep, code, out)
		}
		if code, _ := call(t, "GET", srv.URL+ep, ""); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", ep, code)
		}
	}
	// Tuple payload that isn't a tuple.
	if code, out := call(t, "POST", srv.URL+"/insert",
		`{"extent": "PART", "object": {"int": 3}}`); code != http.StatusBadRequest ||
		!strings.Contains(out["error"].(string), "not a tuple") {
		t.Errorf("non-tuple insert: status %d, %v", code, out)
	}
	// Unknown extent.
	if code, out := call(t, "POST", srv.URL+"/delete",
		`{"extent": "NOPE", "oid": 1}`); code != http.StatusBadRequest || out["error"] == nil {
		t.Errorf("unknown-extent delete: status %d, %v", code, out)
	}
}

func TestServeMetricsAndHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	call(t, "POST", srv.URL+"/query", `{"query": "select p.pname from p in PART"}`)
	code, out := call(t, "GET", srv.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	eng, ok := out["engine"].(map[string]any)
	if !ok {
		t.Fatalf("metrics reply lacks engine block: %v", out)
	}
	if eng["queries"].(float64) < 1 {
		t.Fatalf("query counter did not move: %v", eng)
	}
	for _, k := range []string{"deletes", "updates", "feedback_evictions", "template_hits",
		"fingerprint_hits", "plan_reuses", "fingerprint_fallbacks", "cache_entries", "tuple_shapes"} {
		if _, ok := eng[k]; !ok {
			t.Errorf("metrics lack %q: %v", k, eng)
		}
	}
	if _, ok := out["store"]; !ok {
		t.Fatalf("metrics reply lacks store block: %v", out)
	}
}

// servePointQueries are the four distinct reads of the benchmark's
// serve.point cycle.
var servePointQueries = []string{
	`select p.pname from p in PART where p.color = "red"`,
	`select p.pname from p in PART where p.price < 10`,
	`select s.sname from s in SUPPLIER`,
	`select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
}

// newDefaultEngine builds adlserve's default store and engine.
func newDefaultEngine(tb testing.TB) *server.Engine {
	tb.Helper()
	st := bench.Generate(bench.Config{Suppliers: 400, Parts: 800, Deliveries: 200, Seed: 94})
	if err := st.CreateIndex("PART", "color", storage.HashIndex); err != nil {
		tb.Fatal(err)
	}
	if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
		tb.Fatal(err)
	}
	st.Analyze()
	return server.New(st, server.Options{Parallelism: 1})
}

func postQuery(tb testing.TB, url, query string, result bool) []byte {
	tb.Helper()
	body, err := json.Marshal(map[string]any{"query": query, "result": result})
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		tb.Fatalf("Content-Length %q, body is %d bytes", cl, len(raw))
	}
	return raw
}

// TestServeQueryReplyGolden pins the wire format of /query: for each
// serve.point query the hand-written reply is, byte for byte, what the
// former map-through-encoding/json reply was, and its decoded result is the
// engine's own canonical text.
func TestServeQueryReplyGolden(t *testing.T) {
	eng := newDefaultEngine(t)
	srv := httptest.NewServer(newMux(eng, false))
	t.Cleanup(srv.Close)
	for _, q := range servePointQueries {
		if _, err := eng.Query(q); err != nil { // plan once, so every reply below is a cache hit
			t.Fatal(err)
		}
		for _, withResult := range []bool{true, false} {
			raw := postQuery(t, srv.URL, q, withResult)
			res, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]any{
				"rows": res.Set.Len(), "seq": res.Seq, "epoch": res.Epoch,
				"cache_hit": res.CacheHit, "replanned": res.Replanned, "evicted": res.Evicted,
			}
			if withResult {
				want["result"] = res.Set.String()
			}
			var golden bytes.Buffer
			if err := json.NewEncoder(&golden).Encode(want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, golden.Bytes()) {
				t.Errorf("result=%v %q: reply differs from the encoding/json form\n got %.200s\nwant %.200s",
					withResult, q, raw, golden.Bytes())
			}
			var got map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("reply is not JSON: %v", err)
			}
			if len(got) != len(want) {
				t.Errorf("reply keys %v, want those of %v", got, want)
			}
			if withResult && got["result"] != res.Set.String() {
				t.Errorf("%q: decoded result is not Set.String()", q)
			}
		}
	}
}

// TestAppendJSONString checks the escaper on text the store never holds but
// a client can insert: every byte value, and multi-byte runes.
func TestAppendJSONString(t *testing.T) {
	all := make([]byte, 0, 128)
	for c := 0; c < 0x80; c++ {
		all = append(all, byte(c))
	}
	for _, text := range []string{"", `{"a\"b", "c\\d"}`, string(all), "naïve ⟨σ⟩   😀", "tab\there\nline"} {
		lit := appendJSONString(nil, []byte(text))
		var back string
		if err := json.Unmarshal(lit, &back); err != nil {
			t.Errorf("%q: literal %s does not decode: %v", text, lit, err)
		} else if back != text {
			t.Errorf("%q decoded as %q", text, back)
		}
	}
}

// TestServeOversizedBody: a body over the limit is refused with a 4xx and
// the server keeps serving.
func TestServeOversizedBody(t *testing.T) {
	srv := newTestServer(t)
	huge := `{"query": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, ep := range []string{"/query", "/insert", "/delete", "/update"} {
		code, out := call(t, "POST", srv.URL+ep, huge)
		if code != http.StatusRequestEntityTooLarge || out["error"] == nil {
			t.Errorf("POST %s with a %d-byte body: status %d, %v", ep, len(huge), code, out)
		}
	}
	code, out := call(t, "POST", srv.URL+"/query", `{"query": "select p.pname from p in PART"}`)
	if code != http.StatusOK || out["rows"].(float64) != 50 {
		t.Fatalf("query after the oversized bodies: status %d, %v", code, out)
	}
}

// BenchmarkServeHTTPQuery — one /query round trip through the handler with
// the result text requested, per serve.point query: execution, canonical
// printing, the JSON reply and net/http on loopback.
func BenchmarkServeHTTPQuery(b *testing.B) {
	srv := httptest.NewServer(newMux(newDefaultEngine(b), false))
	b.Cleanup(srv.Close)
	for i, name := range []string{"red-parts", "cheap-parts", "all-suppliers", "eq5-semijoin"} {
		q := servePointQueries[i]
		b.Run(name, func(b *testing.B) {
			postQuery(b, srv.URL, q, true) // plan and connect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postQuery(b, srv.URL, q, true)
			}
		})
	}
}
