package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxBodyBytes bounds request bodies; a batch of 64 specs fits in a few
// kilobytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// decodeJSON parses one strict JSON request body: unknown fields, syntax
// errors and trailing garbage all fail with errBadRequest.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: invalid JSON body: %w", errBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", errBadRequest)
	}
	return nil
}

// statusWriter captures the response code for the metrics middleware and
// forwards Flush so the NDJSON stream endpoint keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-request plumbing shared by all
// instrumented endpoints: inflight gauge, latency/status observation and
// panic isolation. A panicking handler is converted into a 500 (when the
// response has not started) and the process keeps serving.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		if g := s.metrics.inflightGauge(endpoint); g != nil {
			g.Add(1)
			defer g.Add(-1)
		}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.logf("panic in %s handler (isolated): %v", endpoint, rec)
				if !sw.wrote {
					_ = writeJSON(sw, http.StatusInternalServerError,
						errorResponse{Error: "internal error: request panicked", Code: http.StatusInternalServerError})
				}
			}
			s.metrics.observe(endpoint, sw.code, time.Since(start))
		}()
		h(sw, r)
	})
}

// writeJSON renders one JSON response body. The body is encoded before
// the header goes out, so a value that cannot be encoded (a NaN or ±Inf
// in a result) is answered with a 500 error body instead of an empty 200;
// the encoding error is returned so the caller can drop that value from
// its cache. A broken client connection is not reported to the peer.
func writeJSON(w http.ResponseWriter, code int, v any) error {
	body, err := encodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		w.Header().Del("X-Cache")
		msg := fmt.Sprintf("internal error: response cannot be encoded: %v", err)
		// An errorResponse is a string and an int, which always encode.
		body, _ = encodeJSON(errorResponse{Error: msg, Code: code})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
	return err
}

// encodeJSON renders v as every JSON response body is written: indented
// by two spaces and newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
