// Erasure coding: stripe every volume RS(4,2) across six servers instead
// of replicating it, then crash two servers mid-run. The ToR switch
// steers reads for the dead chunk holders to survivors, which
// reconstruct the data from any 4 of the 6 chunks (degraded reads),
// while the background reconstructor rebuilds the lost chunks in the
// switch's GC idle windows. The demo first shows the codec itself on
// real bytes, then compares replication and RS(4,2) end to end.
package main

import (
	"bytes"
	"fmt"
	"log"

	"rackblox"
)

func codecDemo() {
	codec, err := rackblox.NewECCodec(rackblox.ECSpec{K: 4, M: 2})
	if err != nil {
		log.Fatal(err)
	}
	data := [][]byte{
		[]byte("rack-scale "), []byte("storage is "),
		[]byte("co-designed"), []byte(" w/ network"),
	}
	parity, err := codec.Encode(data)
	if err != nil {
		log.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[3] = nil, nil // lose two of six chunks
	if err := codec.Reconstruct(shards); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("codec: lost chunks 0 and 3, reconstructed %q\n",
		bytes.Join(shards[:4], nil))

	shards[0], shards[1], shards[2] = nil, nil, nil // three losses: m+1
	if err := codec.Reconstruct(shards); err != nil {
		fmt.Printf("codec: three losses -> %v\n\n", err)
	}
}

func run(red rackblox.RedundancySpec, failTwo bool) *rackblox.Result {
	cfg := rackblox.DefaultConfig()
	cfg.StorageServers = 6
	cfg.Redundancy = red
	if failTwo {
		at := cfg.Warmup + cfg.Duration/4
		cfg.Scenario = []rackblox.Event{rackblox.FailServer(0, at), rackblox.FailServer(1, at)}
	}
	res, err := rackblox.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	codecDemo()

	fmt.Println("YCSB 50/50 on six servers, healthy rack:")
	for _, red := range []rackblox.RedundancySpec{
		rackblox.RedundancyReplication(), rackblox.RedundancyEC(4, 2),
	} {
		res := run(red, false)
		reads := res.Recorder.Reads()
		fmt.Printf("  %-14s reads p99 %6.2f ms  p99.9 %6.2f ms  write-amp %.2f\n",
			red, float64(reads.P99())/1e6, float64(reads.P999())/1e6, res.WriteAmp)
	}

	fmt.Println("\nSame rack with two servers crashing mid-run:")
	for _, red := range []rackblox.RedundancySpec{
		rackblox.RedundancyReplication(), rackblox.RedundancyEC(4, 2),
	} {
		res := run(red, true)
		reads := res.Recorder.Reads()
		fmt.Printf("  %-14s reads p99.9 %6.2f ms  degraded %5d  lost reads %3d  repaired stripes %d\n",
			red, float64(reads.P999())/1e6, res.DegradedReads, res.LostReads,
			res.RepairedStripes)
	}
	fmt.Println("\nRS(4,2) serves every read through reconstruction — at 1.5x the")
	fmt.Println("storage footprint instead of replication's 2x.")
}
