package corpusd

import (
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gossip/internal/corpus"
)

// TestListenAndServeNoGoroutineLeak serves one GET, cancels the context,
// and requires the goroutine count back at its baseline once
// ListenAndServe has returned: shutdown leaves nothing behind.
func TestListenAndServeNoGoroutineLeak(t *testing.T) {
	store, err := corpus.Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- ListenAndServe(ctx, "127.0.0.1:0", srv, func(a net.Addr) { addrc <- a }) }()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("ListenAndServe: %v", err)
	}

	// No keep-alive: an idle client connection would hold goroutines of
	// the test's own, not the server's.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr.String() + "/runs")
	if err != nil {
		t.Fatalf("GET /runs: %v", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs: status %d, read error %v", resp.StatusCode, err)
	}

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("ListenAndServe after cancel: %v", err)
	}
	waitGoroutines(t, base)
}

// waitGoroutines polls for at most a second until no more than base
// goroutines run, and otherwise fails with every goroutine's stack.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
