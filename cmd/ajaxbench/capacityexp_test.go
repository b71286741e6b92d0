package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCapacityCountsReplies aims one fixed-rate window at a stub /search
// that answers every fifth arrival after the warm-up with a 429, 503 or
// 502 in turn and one in five with a shard missing, and checks the
// printed rates add up.
func TestCapacityCountsReplies(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i <= 100: // the warm-up: one of each query of the mix
		case i%5 == 0:
			switch i / 5 % 3 {
			case 0:
				w.WriteHeader(http.StatusTooManyRequests)
			case 1:
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(`{"error":"deadline budget below floor"}`))
			default:
				w.WriteHeader(http.StatusBadGateway)
			}
			return
		case i%5 == 1:
			w.Header().Set("X-Ajaxserve-Shards", "1/2")
		}
		w.Write([]byte(`{"query":"q","k":10,"count":0,"results":[]}`))
	}))
	defer stub.Close()

	var out bytes.Buffer
	e := &env{ctx: context.Background(), out: &out, seed: 2008, target: stub.URL + "/", rate: 100}
	if err := expCapacity(e); err != nil {
		t.Fatal(err)
	}
	if n.Load() < 200 {
		t.Fatalf("stub saw %d requests, want the 100-query warm-up and a window at 100/s", n.Load())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if len(fields) != 8 || fields[0] != "100" {
		t.Fatalf("last line %q is not one window at 100/s", lines[len(lines)-1])
	}
	// Every fifth arrival is refused, a third of those shed; a fifth are
	// degraded.
	for i, want := range map[int]float64{5: 20, 6: 20 / 3.0, 7: 20} {
		got, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || got < want-4 || got > want+4 {
			t.Errorf("column %d = %s, want about %.1f%%:\n%s", i, fields[i], want, out.String())
		}
	}
}
