package server_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/clamshell/clamshell/internal/server"
)

func TestWorkerUIServed(t *testing.T) {
	c := newNode(t, server.Config{})
	r, err := c.HTTP.Get(c.BaseURL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET / status %d, want 200", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q, want text/html", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The page must wire the full worker protocol.
	for _, want := range []string{"/api/join", "/api/task", "/api/submit", "/api/heartbeat"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("worker page missing %s call", want)
		}
	}
}

func TestWorkerUINotServedOnOtherPaths(t *testing.T) {
	c := newNode(t, server.Config{})
	r, err := c.HTTP.Get(c.BaseURL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope status %d, want 404 (UI only at /)", r.StatusCode)
	}
}
