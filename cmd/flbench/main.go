// Command flbench regenerates the paper's tables and figures.
//
// Usage:
//
//	flbench -list
//	flbench -exp table1 -scale fast
//	flbench -exp fig9a -scale bench -csv -o fig9a.csv
//	flbench -exp all -scale bench
//
// Each experiment prints the rows/series behind the corresponding table or
// figure of the paper; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// -telemetry prints the process registry summary after an experiment run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (or 'all'); see -list")
		scale      = flag.String("scale", "bench", "scale preset: bench, fast, or paper")
		asCSV      = flag.Bool("csv", false, "emit CSV instead of an aligned text table")
		outPath    = flag.String("o", "", "write the result to this file instead of stdout")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		healthURL  = flag.String("health-scrape", "", "poll this /debug/fl/health URL until it serves a live snapshot with per-client scores and a firing alert, then exit (the health-smoke CI gate)")
		scrapeWait = flag.Duration("scrape-timeout", 60*time.Second, "give up on -health-scrape after this long")
		showTelem  = cliflags.Summary()
	)
	flag.Parse()

	if *healthURL != "" {
		if err := healthScrape(*healthURL, *scrapeWait); err != nil {
			fmt.Fprintln(os.Stderr, "flbench: health-scrape:", err)
			os.Exit(1)
		}
		fmt.Println("health scrape passed")
		return
	}

	if *list {
		for _, id := range experiments.List() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "flbench: -exp is required (use -list to see ids)")
		os.Exit(2)
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.List()
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	logW := io.Writer(os.Stderr)
	if *quiet {
		logW = io.Discard
	}

	for _, id := range ids {
		run, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flbench:", err)
			os.Exit(2)
		}
		fmt.Fprintf(logW, "running %s (%s) at scale %s…\n", id, experiments.Title(id), sc)
		res, err := run(sc, logW)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *asCSV {
			err = res.CSV(out)
		} else {
			err = res.Write(out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flbench: writing %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
	}
	if *showTelem {
		fmt.Fprintln(os.Stderr, "telemetry summary:")
		telemetry.Default().WriteSummary(os.Stderr)
	}
}
