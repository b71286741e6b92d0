package main

import (
	"context"
	"io"
	"testing"
	"time"

	"ajaxcrawl/internal/webapp"
)

// TestEveryExperimentRuns runs the whole table on a tiny site, so an
// internal/ API change that breaks an experiment at run time fails here
// instead of when someone next runs the binary.
func TestEveryExperimentRuns(t *testing.T) {
	const videos, seed = 8, 2008
	e := &env{
		ctx:     context.Background(),
		out:     io.Discard,
		site:    webapp.New(webapp.DefaultConfig(videos, seed)),
		videos:  videos,
		seed:    seed,
		latBase: 60 * time.Millisecond,
		latPerK: 4 * time.Millisecond,
	}
	seen := map[string]bool{}
	for _, x := range experiments {
		if x.id == "" || seen[x.id] {
			t.Fatalf("experiment id %q is empty or repeated", x.id)
		}
		seen[x.id] = true
		if err := x.run(e); err != nil {
			t.Errorf("%s: %v", x.id, err)
		}
	}
}
