// Command ajaxmodel inspects stored application models: it prints the
// transition graphs the crawler built (the chapter-2 model made visible)
// and can export them as Graphviz dot for rendering.
//
// Examples:
//
//	ajaxmodel -models ./crawl-out                 # summary of every page
//	ajaxmodel -models ./crawl-out -url /watch?v=X # one page in detail
//	ajaxmodel -models ./crawl-out -url /watch?v=X -dot > graph.dot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ajaxcrawl/internal/model"
)

func main() {
	var (
		models = flag.String("models", "", "directory holding ajaxmodels.gob: an ajaxcrawl -out root or a published snapshot")
		url    = flag.String("url", "", "show one page's transition graph in detail")
		dot    = flag.Bool("dot", false, "emit Graphviz dot for the selected page (requires -url)")
	)
	flag.Parse()
	if *models == "" {
		fmt.Fprintln(os.Stderr, "-models is required")
		flag.Usage()
		os.Exit(2)
	}
	graphs, err := model.LoadAll(*models)
	if err != nil {
		fatal("load models: %v", err)
	}
	if len(graphs) == 0 {
		fatal("no application models under %s", *models)
	}

	if *url == "" {
		printSummary(graphs)
		return
	}
	var g *model.Graph
	for _, cand := range graphs {
		if cand.URL == *url {
			g = cand
			break
		}
	}
	if g == nil {
		fatal("no model for %s (run without -url for the list)", *url)
	}
	if *dot {
		emitDot(g)
		return
	}
	printDetail(g)
}

func printSummary(graphs []*model.Graph) {
	fmt.Printf("%-55s %-8s %-12s\n", "URL", "states", "transitions")
	totalStates, totalTrans := 0, 0
	for _, g := range graphs {
		st := g.Stats()
		fmt.Printf("%-55s %-8d %-12d\n", st.URL, st.States, st.Transitions)
		totalStates += st.States
		totalTrans += st.Transitions
	}
	fmt.Printf("%-55s %-8d %-12d  (%d pages)\n", "TOTAL", totalStates, totalTrans, len(graphs))
}

func printDetail(g *model.Graph) {
	fmt.Printf("page: %s\n", g.URL)
	fmt.Printf("states: %d, transitions: %d, initial: s%d\n\n", g.NumStates(), len(g.Transitions), g.Initial)
	for _, s := range g.States {
		text := s.Text
		if len(text) > 70 {
			text = text[:70] + "..."
		}
		fmt.Printf("s%-3d depth=%d hash=%s  %q\n", s.ID, s.Depth, s.Hash, text)
	}
	fmt.Println()
	fmt.Printf("%-10s %-10s %-14s %-10s %s\n", "from", "to", "source", "event", "targets")
	for _, tr := range g.Transitions {
		fmt.Printf("s%-9d s%-9d %-14s %-10s %s\n",
			tr.From, tr.To, tr.Source, tr.Event, strings.Join(tr.Targets, ","))
	}
	// Reachability check: every state should have a replay path.
	var unreachable []model.StateID
	for _, s := range g.States {
		if g.PathTo(s.ID) == nil && s.ID != g.Initial {
			unreachable = append(unreachable, s.ID)
		}
	}
	if len(unreachable) > 0 {
		fmt.Printf("\nwarning: unreachable states: %v\n", unreachable)
	}
}

// emitDot renders the transition graph like Figure 2.2 of the thesis.
func emitDot(g *model.Graph) {
	fmt.Println("digraph ajaxpage {")
	fmt.Println("  rankdir=LR;")
	fmt.Printf("  label=%q;\n", g.URL)
	for _, s := range g.States {
		shape := "circle"
		if s.ID == g.Initial {
			shape = "doublecircle"
		}
		fmt.Printf("  s%d [shape=%s, label=\"s%d\\nd=%d\"];\n", s.ID, shape, s.ID, s.Depth)
	}
	for _, tr := range g.Transitions {
		fmt.Printf("  s%d -> s%d [label=%q];\n", tr.From, tr.To, tr.Source)
	}
	fmt.Println("}")
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
