package core

import (
	"context"
	"fmt"

	"ajaxcrawl/internal/browser"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/model"
)

// ReplayPath reconstructs the DOM of a state by loading the page fresh
// and replaying the annotated events along a transition path — the
// result-aggregation algorithm of thesis §5.4:
//
//  1. construct the DOM of the initial state,
//  2. invoke all annotated events to the desired state,
//  3. return the generated DOM (to be presented in a browser).
func ReplayPath(ctx context.Context, fetcher fetch.Fetcher, url string, path []*model.Transition) (*dom.Node, error) {
	page := browser.NewPage(fetcher)
	if err := page.Load(ctx, url); err != nil {
		return nil, err
	}
	if err := page.RunOnLoad(ctx); err != nil {
		return nil, fmt.Errorf("core: replay onload: %w", err)
	}
	for i, tr := range path {
		ev := browser.Event{Type: tr.Event, Code: tr.Code, Path: tr.SourcePath}
		if tr.Source != tr.SourcePath {
			ev.ID = tr.Source
		}
		var err error
		if tr.Probe != "" {
			_, err = page.TriggerWithValue(ctx, ev, tr.Probe)
		} else {
			_, err = page.Trigger(ctx, ev)
		}
		if err != nil {
			return nil, fmt.Errorf("core: replay step %d (%s): %w", i, ev, err)
		}
	}
	return page.Doc, nil
}
