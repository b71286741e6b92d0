package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"ajaxcrawl/internal/router"
)

// TestShardConnectionsAreReused: 8 concurrent queries hold 8 shard
// connections at once, so between bursts the router must keep 8 idle
// ones. With http.DefaultClient (2 idle per host) every later round
// re-dials 6 of them — 20 connections over three rounds; with the
// client main builds, the first round's 8 serve all three.
func TestShardConnectionsAreReused(t *testing.T) {
	const clients, rounds = 8, 3
	var opened atomic.Int64
	// The shard answers a round only once all of it has arrived, so the
	// 8 requests are in flight together whatever the scheduler does.
	var mu sync.Mutex
	arrived, release := 0, make(chan struct{})
	shard := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrived++
		gate := release
		if arrived%clients == 0 {
			close(release)
			release = make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"terms":["video"],"df":[0],"total_states":1,"gen":1,"docs":1,"states":1,"candidates":[]}`))
	}))
	shard.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	shard.Start()
	defer shard.Close()

	topo, err := parseTopology(shard.URL, 1, shardClient(64))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Shards: topo})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := rt.Search(context.Background(), "video", 10); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if got := opened.Load(); got > clients {
		t.Fatalf("%d rounds of %d concurrent queries opened %d shard connections, want at most %d", rounds, clients, got, clients)
	}
}
