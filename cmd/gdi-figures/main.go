// Command gdi-figures regenerates the paper's evaluation figures and
// tables (§6) at laptop scale and prints the same series the paper plots.
//
// Usage:
//
//	gdi-figures [-profile quick|full] [-fig all|4a|4b|4c|4d|5|6a|6b|6c|6d|6e|6f|rich|real]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/gdi-go/gdi/internal/figures"
	"github.com/gdi-go/gdi/internal/workload"
)

func main() {
	profileName := flag.String("profile", "quick", "experiment sizes: quick or full")
	fig := flag.String("fig", "all", "which figure to regenerate (4a, 4b, 4c, 4d, 5, 6a, 6b, 6c, 6d, 6e, 6f, rich, real, all)")
	charts := flag.Bool("charts", false, "render ASCII latency histograms for figure 5")
	flag.Parse()

	prof := figures.Quick
	if *profileName == "full" {
		prof = figures.Full
	}

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "gdi-figures: figure %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	readMixes := []workload.Mix{workload.ReadMostly, workload.ReadIntensive}
	writeMixes := []workload.Mix{workload.LinkBench, workload.WriteIntensive}

	run("4a", func() error {
		pts, err := figures.RunOLTP(prof, readMixes, false, false)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatOLTP("Figure 4a: OLTP read mixes, weak scaling", pts))
		return nil
	})
	run("4b", func() error {
		pts, err := figures.RunOLTP(prof, readMixes, true, false)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatOLTP("Figure 4b: OLTP read mixes, strong scaling", pts))
		return nil
	})
	run("4c", func() error {
		pts, err := figures.RunOLTP(prof, writeMixes, false, true)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatOLTP("Figure 4c: LinkBench + write intensive, weak scaling (with JanusGraph-like baseline)", pts))
		return nil
	})
	run("4d", func() error {
		pts, err := figures.RunOLTP(prof, writeMixes, true, true)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatOLTP("Figure 4d: LinkBench + write intensive, strong scaling (with JanusGraph-like baseline)", pts))
		return nil
	})
	run("5", func() error {
		rows, err := figures.RunLatency(prof, *charts)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatLatency(rows))
		return nil
	})
	run("6a", func() error {
		pts, err := figures.RunAnalytics(prof, false)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatAnalytics("Figure 6a: PR, CDLP, WCC — weak scaling", pts))
		return nil
	})
	run("6b", func() error {
		pts, err := figures.RunAnalytics(prof, true)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatAnalytics("Figure 6b: PR, CDLP, WCC, LCC, BI2 — strong scaling (with Neo4j-like BI2)", pts))
		return nil
	})
	run("6c", func() error {
		pts, err := figures.RunGNN(prof, []int{4, 16, 64}, 2, false)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatAnalytics("Figure 6c: GNN (graph convolution) — weak scaling", pts))
		return nil
	})
	run("6d", func() error {
		pts, err := figures.RunGNN(prof, []int{4, 16, 64}, 2, true)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatAnalytics("Figure 6d: GNN (graph convolution) — strong scaling", pts))
		return nil
	})
	run("6e", func() error {
		pts, err := figures.RunTraversal(prof, false)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatAnalytics("Figure 6e: BFS + k-hop — weak scaling (vs Graph500, Neo4j-like)", pts))
		return nil
	})
	run("6f", func() error {
		pts, err := figures.RunTraversal(prof, true)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatAnalytics("Figure 6f: BFS + k-hop — strong scaling (vs Graph500, Neo4j-like)", pts))
		return nil
	})
	run("rich", func() error {
		pts, err := figures.RunRichness(prof)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatRichness(pts))
		return nil
	})
	run("real", func() error {
		pts, err := figures.RunDegreeShape(prof)
		if err != nil {
			return err
		}
		fmt.Print(figures.FormatDegreeShape(pts))
		return nil
	})
}
