// Command experiments regenerates the paper's tables and figures on the
// dataset analogues:
//
//	experiments -run all                 # everything (minutes)
//	experiments -run fig1,table3         # a subset
//	experiments -run fig7 -seeds 30      # paper-protocol seed count
//	experiments -datasets Slashdot,Pokec # restrict datasets
//
// Experiment ids: table2, fig1, fig3, fig4, fig6, fig7, fig8, fig9,
// table3, fig10, ablation, scalability.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tpa/repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (or 'all')")
	seeds := flag.Int("seeds", 10, "random seeds per measurement (paper: 30)")
	dsets := flag.String("datasets", "", "comma-separated dataset subset (default: per-figure datasets)")
	budget := flag.Int64("budget", 12<<20, "preprocessed-data budget in bytes (over → OOM)")
	flag.Parse()

	opt := experiments.DefaultOptions()
	opt.Seeds = *seeds
	opt.BudgetBytes = *budget
	if *dsets != "" {
		opt.Datasets = strings.Split(*dsets, ",")
	}

	ids := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		ids[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := ids["all"]
	want := func(id string) bool { return all || ids[id] }

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	printed := 0
	if want("table2") {
		t, err := experiments.TableII(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("fig1") {
		res, err := experiments.Fig1(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Memory)
		fmt.Println(res.Preprocess)
		fmt.Println(res.Online)
		printed++
	}
	if want("fig3") {
		tabs, err := experiments.Fig3(opt, 8)
		if err != nil {
			fail(err)
		}
		for _, t := range tabs {
			fmt.Println(t)
		}
		printed++
	}
	if want("fig4") {
		t, err := experiments.Fig4(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("fig6") {
		t, err := experiments.Fig6(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("fig7") {
		t, err := experiments.Fig7(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("fig8") {
		t, err := experiments.Fig8(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("fig9") {
		t, err := experiments.Fig9(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("table3") {
		t, err := experiments.TableIII(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("scalability") {
		t, err := experiments.Scalability(opt, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("ablation") {
		t, err := experiments.Ablation(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
		printed++
	}
	if want("fig10") {
		res, err := experiments.Fig10(opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Memory)
		fmt.Println(res.Preprocess)
		fmt.Println(res.Online)
		printed++
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matched %q\n", *run)
		os.Exit(2)
	}
}
