package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/value"
)

// Limits of the HTTP boundary. A request is one query text or one object, so
// a megabyte of body and a few seconds to deliver it are generous; a reply is
// not bounded here, so there is no write timeout to cut a large result short.
const (
	maxBodyBytes      = 1 << 20
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the listener-side configuration around a handler.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// newMux wires the HTTP surface over one engine. It is the whole server
// minus flag parsing and the listener, so tests drive it through
// net/http/httptest.
func newMux(eng *server.Engine, verifyAll bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"engine": eng.Metrics(),
			"store":  eng.Store().Stats(),
		})
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query  string `json:"query"`
			Verify bool   `json:"verify"`
			Result bool   `json:"result"`
		}
		if !readPost(w, r, &req) {
			return
		}
		run := eng.Query
		if req.Verify || verifyAll {
			run = eng.QueryVerified
		}
		res, err := run(req.Query)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeQueryReply(w, res, req.Result)
	})
	mux.HandleFunc("/insert", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Extent string          `json:"extent"`
			Object json.RawMessage `json:"object"`
		}
		if !readPost(w, r, &req) {
			return
		}
		obj, err := decodeTuple(req.Object)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		oid, err := eng.Insert(req.Extent, obj)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"oid": uint64(oid)})
	})
	mux.HandleFunc("/delete", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Extent string `json:"extent"`
			OID    uint64 `json:"oid"`
		}
		if !readPost(w, r, &req) {
			return
		}
		if err := eng.Delete(req.Extent, value.OID(req.OID)); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": req.OID})
	})
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Extent string          `json:"extent"`
			OID    uint64          `json:"oid"`
			Object json.RawMessage `json:"object"`
		}
		if !readPost(w, r, &req) {
			return
		}
		obj, err := decodeTuple(req.Object)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := eng.Update(req.Extent, value.OID(req.OID), obj); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"updated": req.OID})
	})
	return mux
}

// readPost decodes the JSON body of a POST into req. On a wrong method, a
// malformed body or one over maxBodyBytes it writes the error reply and
// reports false.
func readPost(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad request: %v", err)
		return false
	}
	return true
}

// replyBufs holds the buffers /query replies are assembled in. A reply is
// written with one Write and a Content-Length, so the buffer is free again
// when the handler returns.
var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

type replyBuf struct{ json, text []byte }

// writeQueryReply streams the /query reply: the fixed fields appended by
// hand in the key order encoding/json gives a map, and the result — when
// asked for — escaped straight from the canonical encoder's bytes, without
// materializing the text as a Go string or the reply as a value tree.
func writeQueryReply(w http.ResponseWriter, res *server.Result, withResult bool) {
	rb := replyBufs.Get().(*replyBuf)
	defer replyBufs.Put(rb)
	b := append(rb.json[:0], `{"cache_hit":`...)
	b = strconv.AppendBool(b, res.CacheHit)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, res.Epoch, 10)
	b = append(b, `,"evicted":`...)
	b = strconv.AppendBool(b, res.Evicted)
	b = append(b, `,"replanned":`...)
	b = strconv.AppendBool(b, res.Replanned)
	if withResult {
		rb.text = value.AppendText(rb.text[:0], res.Set)
		b = append(b, `,"result":`...)
		b = appendJSONString(b, rb.text)
	}
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(res.Set.Len()), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, res.Seq, 10)
	b = append(b, "}\n"...)
	rb.json = b

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b) // a client that hung up is not the server's error
}

// appendJSONString appends text as a JSON string literal. Bytes above 0x7f
// pass through: the canonical text quotes invalid UTF-8 inside string atoms
// itself, and JSON carries valid UTF-8 as is.
func appendJSONString(dst, text []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i, c := range text {
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, text[start:i]...)
		start = i + 1
		if c >= 0x20 {
			dst = append(dst, '\\', c)
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	dst = append(dst, text[start:]...)
	return append(dst, '"')
}

// decodeTuple decodes a tagged-JSON object payload into a tuple.
func decodeTuple(raw json.RawMessage) (*value.Tuple, error) {
	v, err := value.DecodeJSON(raw)
	if err != nil {
		return nil, fmt.Errorf("bad object: %w", err)
	}
	obj, ok := v.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("object is %s, not a tuple", v.Kind())
	}
	return obj, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}
