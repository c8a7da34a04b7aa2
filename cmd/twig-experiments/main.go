// Command twig-experiments regenerates any table or figure of the
// paper's evaluation on the simulated platform.
//
// Usage:
//
//	twig-experiments -experiment fig5 [-scale quick|paper] [-seed 1] [-parallel N]
//	twig-experiments -fig figscen -short
//	twig-experiments -experiment all
//
// -fig is an alias for -experiment. -parallel fans independent
// experiment cells out over N workers (default GOMAXPROCS); results are
// byte-identical at any setting. -short substitutes a smoke-test scale
// (tiny networks, 200-interval runs) so CI can rerun an experiment and
// diff the output in seconds.
//
// Experiment ids: fig1, table1, fig4, table2, table3, fig5, fig6, fig7,
// figmem, fig8, fig9, fig10, fig11, fig12, fig13, figfault, figchaos,
// figscen, ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/twig-sched/twig/internal/experiments"
	"github.com/twig-sched/twig/internal/sim/service"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment id (fig1..fig13, table1..table3, figmem, figscen, ablations, all)")
		fig      = flag.String("fig", "", "alias for -experiment")
		scale    = flag.String("scale", "quick", "experiment scale: quick or paper")
		short    = flag.Bool("short", false, "smoke-test scale: tiny networks, 200-interval runs (overrides -scale)")
		seed     = flag.Int64("seed", 1, "random seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent experiment cells (results are identical at any setting)")
	)
	flag.Parse()
	experiments.SetParallelism(*parallel)
	if *fig != "" {
		*exp = *fig
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *short {
		sc = experiments.ShortScale()
	}

	runners := map[string]func(){
		"fig1": func() {
			samples := 4000
			if sc.Name == "paper" {
				samples = 30_000
			}
			fmt.Println(experiments.Fig1("memcached", samples, *seed))
			fmt.Println(experiments.Fig1("web-search", samples, *seed+1))
		},
		"table1": func() {
			secs := 40
			if sc.Name == "paper" {
				secs = 1000
			}
			fmt.Println(experiments.Table1(service.TailbenchNames(), secs, *seed))
		},
		"fig4": func() {
			for _, svc := range []string{"xapian", "masstree"} {
				fmt.Println(experiments.Fig4(svc, 12, *seed))
			}
		},
		"table2":          func() { fmt.Println(experiments.Table2(60, *seed)) },
		"table3":          func() { fmt.Println(experiments.Table3(20)) },
		"fig5":            func() { fmt.Println(experiments.Fig5(service.TailbenchNames(), sc, *seed)) },
		"fig6":            func() { fmt.Println(experiments.Fig6(sc, *seed)) },
		"fig7":            func() { fmt.Println(experiments.Fig7(sc, *seed)) },
		"figmem":          func() { fmt.Println(experiments.FigMem(3, 30, 25)) },
		"fig8":            func() { fmt.Println(experiments.Fig8(sc, *seed)) },
		"fig9":            func() { fmt.Println(experiments.Fig9(sc, *seed)) },
		"fig10":           func() { fmt.Println(experiments.Fig10(sc, *seed)) },
		"fig11":           func() { fmt.Println(experiments.Fig11(sc, *seed)) },
		"fig12":           func() { fmt.Println(experiments.Fig12(sc, *seed)) },
		"figfault":        func() { fmt.Println(experiments.FigFault(sc, *seed)) },
		"figchaos":        func() { fmt.Println(experiments.FigChaos(sc, *seed)) },
		"figscen":         func() { fmt.Println(experiments.FigScen(sc, *seed)) },
		"fig13":           func() { fmt.Println(experiments.Fig13(experiments.ServicePairs(), sc, *seed)) },
		"extension-cat":   func() { fmt.Println(experiments.ExtensionCAT(sc, *seed)) },
		"extension-batch": func() { fmt.Println(experiments.BatchColoc(sc, *seed)) },
		"ablations": func() {
			fmt.Println(experiments.AblationReplay(sc, *seed))
			fmt.Println(experiments.AblationEta(sc, *seed))
			fmt.Println(experiments.AblationReward(sc, *seed))
			fmt.Println(experiments.AblationTargetMode(sc, *seed))
			fmt.Println(experiments.AblationMultiAgentValue(sc, *seed))
		},
	}

	order := []string{
		"fig1", "table1", "fig4", "table2", "table3", "fig5", "fig6", "fig7",
		"figmem", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"figfault", "figchaos", "figscen", "extension-cat", "extension-batch", "ablations",
	}
	if *exp == "all" {
		for _, id := range order {
			t0 := time.Now()
			fmt.Printf("=== %s ===\n", id)
			runners[id]()
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(t0).Seconds())
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %v)\n", *exp, order)
		os.Exit(2)
	}
	run()
}
