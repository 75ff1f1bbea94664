// Command wearsim runs the rack-scale wear-leveling simulations of §4.6
// (Figs. 22 and 23) or a custom configuration.
//
// Example:
//
//	wearsim -exp fig22
//	wearsim -weeks 104 -servers 32 -ssds 16 -local 12 -global 56
package main

import (
	"flag"
	"fmt"
	"os"

	"rackblox/internal/experiments"
	"rackblox/internal/wear"
)

func main() {
	var (
		exp     = flag.String("exp", "", "fig22 | fig23 (empty = custom run)")
		weeks   = flag.Int("weeks", 80, "simulation horizon in weeks")
		servers = flag.Int("servers", 32, "servers in the rack")
		ssds    = flag.Int("ssds", 16, "SSDs per server")
		vssds   = flag.Int("vssds", 4, "vSSDs per SSD")
		local   = flag.Int("local", 12, "local swap period in days (0 = off)")
		global  = flag.Int("global", 56, "global swap period in days (0 = off)")
		seed    = flag.Int64("seed", 1, "placement seed")
	)
	flag.Parse()

	if *exp != "" {
		tables, err := experiments.ByID(*exp, 1, experiments.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wearsim:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
		return
	}

	cfg := wear.DefaultConfig()
	cfg.Servers = *servers
	cfg.SSDsPerServer = *ssds
	cfg.VSSDsPerSSD = *vssds
	cfg.LocalPeriodDays = *local
	cfg.GlobalPeriodDays = *global
	cfg.Seed = *seed
	rack, err := wear.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wearsim:", err)
		os.Exit(1)
	}
	fmt.Printf("%-6s %-12s %-12s %-8s %-8s\n", "week", "rack_imbal", "srv0_imbal", "lswaps", "gswaps")
	for w := 1; w <= *weeks; w++ {
		rack.RunWeeks(1)
		if w%4 == 0 || w == *weeks {
			fmt.Printf("%-6d %-12.4f %-12.4f %-8d %-8d\n",
				w, rack.RackImbalance(), rack.ServerImbalance(0),
				rack.LocalSwaps, rack.GlobalSwaps)
		}
	}
}
