// Command nfstrace prints the paper's Figure 1: the message/disk timeline
// of a 4-biod sequential writer against a standard server and against a
// write-gathering server, >100K into the file. It runs the scenario
// registry's figure1 spec, one cell per server build.
//
// Usage:
//
//	nfstrace            # both timelines
//	nfstrace -gather    # gathering server only
//	nfstrace -standard  # standard server only
//	nfstrace -biods 7
//	nfstrace -capture ops.json   # save the client op timeline as a
//	                             # replayable capture (openload replay)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	gatherOnly := flag.Bool("gather", false, "show only the gathering server")
	standardOnly := flag.Bool("standard", false, "show only the standard server")
	biods := flag.Int("biods", 4, "client biod count")
	capture := flag.String("capture", "",
		"write the client op timeline to this file as a replayable capture "+
			"(JSON; replays via the scenario engine's openload workload)")
	flag.Parse()

	if *capture != "" {
		tr, err := scenario.CaptureFigure1(*gatherOnly, *biods)
		if err == nil {
			err = trace.SaveOps(*capture, tr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfstrace:", err)
			os.Exit(1)
		}
		fmt.Printf("captured %d ops over %v to %s (%s)\n",
			len(tr.Ops), tr.Duration(), *capture, tr.Name)
		return
	}

	spec, _ := scenario.Lookup("figure1")
	var cells []scenario.Cell
	for _, c := range spec.Cells {
		if (*c.Gathering && *standardOnly) || (!*c.Gathering && *gatherOnly) {
			continue
		}
		c.Biods = biods
		cells = append(cells, c)
	}
	spec.Cells = cells
	res, err := scenario.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfstrace:", err)
		os.Exit(1)
	}
	for _, c := range res.Cells {
		fmt.Println(c.TraceText)
		sum := c.TraceLog.Summary(0, 1<<62)
		fmt.Printf("totals: client sends=%d replies=%d disk ops=%d\n\n",
			sum["client:8K"], sum["client:<-"], countPrefix(sum, "disk:"))
	}
}

func countPrefix(m map[string]int, prefix string) int {
	n := 0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}
