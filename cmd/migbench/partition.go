package main

// The partition experiment: optimize one (usually large) circuit through
// the partition subsystem and report machine-readable evidence — the
// SHA-256 of the output BLIF (so CI can assert byte-identity across -jobs
// values without storing megabyte netlists) and the phase wall times (the
// scaling numbers PART_<sha>.json snapshots track).

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/logic"
	"repro/logic/bench"
	"repro/logic/partition"
)

// partitionResult is the JSON shape of one partition-experiment run.
type partitionResult struct {
	Circuit    string                 `json:"circuit"`
	Gates      int                    `json:"gates"`
	Depth      int                    `json:"depth"`
	K          int                    `json:"k"`
	Jobs       int                    `json:"jobs"`
	Cut        int64                  `json:"cut"`
	OutGates   int                    `json:"out_gates"`
	OutDepth   int                    `json:"out_depth"`
	OutSHA256  string                 `json:"out_sha256"`
	Seconds    float64                `json:"seconds"`
	Partition  *logic.PartitionReport `json:"partition"`
	MIGWindows int                    `json:"mig_windows"`
	AIGWindows int                    `json:"aig_windows"`
}

// runPartition loads the experiment circuit — -input file, -nodes mesh, or
// a named benchmark — and runs the partitioned flow once.
func runPartition(k int, inputPath string, meshNodes int, names []string, cfg bench.Config) {
	var net logic.Network
	var label string
	switch {
	case inputPath != "":
		format, err := logic.FormatForPath(inputPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		f, err := os.Open(inputPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		net, err = logic.DecodeReader(format, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		label = inputPath
	case meshNodes > 0:
		net = bench.Mesh(meshNodes)
		label = fmt.Sprintf("mesh%d", meshNodes)
	default:
		name := "my_adder"
		if len(names) == 1 {
			name = names[0]
		}
		net = circuit(name)
		label = name
	}

	start := time.Now()
	out, rep, err := partition.Optimize(context.Background(), net, partition.Config{
		K:         k,
		Workers:   *jobs,
		Effort:    cfg.Effort,
		AIGRounds: cfg.AIGRounds,
		MIGScript: cfg.MIGScript,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "migbench: partition: %v\n", err)
		os.Exit(1)
	}
	seconds := time.Since(start).Seconds()

	res := partitionResult{
		Circuit:   label,
		Gates:     net.Size(),
		Depth:     net.Depth(),
		K:         rep.K,
		Jobs:      *jobs,
		Cut:       rep.Cut,
		OutGates:  out.Size(),
		OutDepth:  out.Depth(),
		OutSHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(out.EncodeBLIF()))),
		Seconds:   seconds,
		Partition: rep,
	}
	for _, p := range rep.Parts {
		if p.Rep == "aig" {
			res.AIGWindows++
		} else {
			res.MIGWindows++
		}
	}
	if *zeroTime {
		res.Seconds = 0
		res.Partition.PartitionSeconds = 0
		res.Partition.StitchSeconds = 0
		for i := range res.Partition.Parts {
			res.Partition.Parts[i].Seconds = 0
			res.Partition.Parts[i].MIGSeconds = 0
			res.Partition.Parts[i].AIGSeconds = 0
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("partition %s: %d gates depth %d -> %d gates depth %d\n",
		res.Circuit, res.Gates, res.Depth, res.OutGates, res.OutDepth)
	fmt.Printf("  k=%d jobs=%d cut=%d windows mig=%d aig=%d\n",
		res.K, res.Jobs, res.Cut, res.MIGWindows, res.AIGWindows)
	fmt.Printf("  %.2fs total (partition %.2fs, stitch %.2fs)\n",
		res.Seconds, rep.PartitionSeconds, rep.StitchSeconds)
	var migLeg, aigLeg float64
	for _, p := range rep.Parts {
		migLeg += p.MIGSeconds
		aigLeg += p.AIGSeconds
	}
	fmt.Printf("  window legs: mig %.2fs, aig %.2fs (summed over windows)\n", migLeg, aigLeg)
	fmt.Printf("  out sha256 %s\n", res.OutSHA256)
}
