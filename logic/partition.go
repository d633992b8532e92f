package logic

// Public mirrors of the partition subsystem's report types. The internal
// package (internal/part) stays unnameable outside the module; these
// structs are the SDK- and wire-visible shape of a partitioned run.

import "repro/internal/part"

// PartitionStat reports one partition window of a partitioned run. It
// mirrors the internal window report field for field, so the two convert
// directly.
type PartitionStat struct {
	// Part is the window's partition index.
	Part int `json:"part"`
	// Gates/Inputs/Outputs describe the extracted window (inputs count
	// boundary signals lifted to window PIs).
	Gates   int `json:"gates"`
	Inputs  int `json:"inputs"`
	Outputs int `json:"outputs"`
	// Rep is the representation whose candidate won the window under the
	// run's objective: "mig" or "aig".
	Rep string `json:"rep"`
	// Size/Depth are measured on the window's netlist export before and
	// after optimization.
	SizeBefore  int `json:"size_before"`
	SizeAfter   int `json:"size_after"`
	DepthBefore int `json:"depth_before"`
	DepthAfter  int `json:"depth_after"`
	// Seconds is the window's wall time (both candidate flows);
	// MIGSeconds and AIGSeconds are each flow's share of it (AIGSeconds is
	// 0 when objective "none" skips the AIG flow).
	Seconds    float64 `json:"seconds"`
	MIGSeconds float64 `json:"mig_seconds"`
	AIGSeconds float64 `json:"aig_seconds"`
}

// PartitionReport describes one partitioned Optimize call.
type PartitionReport struct {
	// K is the effective partition count (the requested k, clamped so
	// parts stay optimizable); Cut the (λ-1) connectivity of the cut.
	K   int   `json:"k"`
	Cut int64 `json:"cut"`
	// Parts reports each non-empty window in partition order.
	Parts []PartitionStat `json:"parts"`
	// PartitionSeconds covers partitioning plus window extraction;
	// StitchSeconds the serial stitch-back.
	PartitionSeconds float64 `json:"partition_seconds"`
	StitchSeconds    float64 `json:"stitch_seconds"`
}

// fromPartReport converts the internal report.
func fromPartReport(r *part.Report) *PartitionReport {
	out := &PartitionReport{
		K:                r.K,
		Cut:              r.Cut,
		PartitionSeconds: r.PartitionSeconds,
		StitchSeconds:    r.StitchSeconds,
	}
	for _, p := range r.Parts {
		out.Parts = append(out.Parts, PartitionStat(p))
	}
	return out
}
