package logic

// Public names of the partition subsystem's report types. The internal
// package (internal/part) stays unimportable outside the module; these
// aliases are the SDK- and wire-visible shape of a partitioned run.

import "repro/internal/part"

// PartitionStat reports one partition window of a partitioned run.
type PartitionStat = part.PartStat

// PartitionReport describes one partitioned Optimize call.
type PartitionReport = part.Report
