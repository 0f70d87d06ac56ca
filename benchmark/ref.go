package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// The reference server is the ruler every time-valued metric is divided by.
// It is a second child of the harness, built from the standard library
// alone, whose one handler decodes and re-encodes a fixed ~4 KiB JSON
// document. A call to it crosses the same path as a call to itagd — SDK-like
// client encode, loopback TCP, net/http on both ends, a server goroutine,
// JSON both ways — so when the box slows down, it slows down by the same
// factor. A spin loop in the harness does not (tested for the issue: 13 %
// spread left).

type refItem struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Posts     int       `json:"posts"`
	Stability float64   `json:"stability"`
	Tags      []string  `json:"tags"`
	Series    []float64 `json:"series"`
}

type refDoc struct {
	Project string    `json:"project"`
	Cursor  string    `json:"cursor"`
	Items   []refItem `json:"items"`
}

// refDocument is the fixed payload: 24 export-row-like items, ≈ 4 KiB.
var refDocument = sync.OnceValue(func() []byte {
	vocab := vocabulary()
	doc := refDoc{Project: "proj-reference", Cursor: "cmVmZXJlbmNl"}
	for i := 0; i < 24; i++ {
		it := refItem{
			ID: fmt.Sprintf("ref-res-%04d", i), Name: fmt.Sprintf("r%d.example.com", i),
			Posts: 5 + i, Stability: 0.5 + float64(i)/100,
		}
		for t := 0; t < 5; t++ {
			it.Tags = append(it.Tags, vocab[i*5+t])
		}
		for s := 0; s < 6; s++ {
			it.Series = append(it.Series, float64(s*i)/37)
		}
		doc.Items = append(doc.Items, it)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a fixed value of a marshalable type
	}
	return raw
})

// runRefServer is the body of `benchmark --ref-server ADDR`.
func runRefServer(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, r *http.Request) {
		var doc refDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := json.Marshal(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out) // a client that went away is the client's failure to report
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// refClient is one closed-loop client's connection to the reference server.
type refClient struct {
	url  string
	http *http.Client
	doc  []byte
	want int // items expected back
}

func newRefClient(addr string) *refClient {
	return &refClient{
		url:  "http://" + addr + "/ref",
		http: &http.Client{Transport: newTransport(), Timeout: 30 * time.Second},
		doc:  refDocument(),
		want: 24,
	}
}

// call performs one reference exchange and checks the reply.
func (c *refClient) call(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // best-effort drain before reporting the status
		return fmt.Errorf("reference server: status %d", resp.StatusCode)
	}
	var doc refDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("reference server: decode: %w", err)
	}
	if len(doc.Items) != c.want {
		return fmt.Errorf("reference server: %d items back, want %d", len(doc.Items), c.want)
	}
	return nil
}

// newTransport is one client's private connection pool: one keep-alive
// connection per host, never shared between closed-loop clients.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     2 * time.Minute,
		DisableCompression:  true,
	}
}
