package main

// goldenSeed is the seed the golden figure digests were recorded at.
const goldenSeed = 99

// goldenSweep maps a sweep's requests-per-cell to the digest of every
// normalized execution time of Figures 10 and 11 at goldenSeed (see
// sweepPass). The simulator is deterministic, so a different digest is
// a change in the simulated results, not noise.
var goldenSweep = map[int]string{
	1000:  "9397f386d6487b4b", // short mode: mcf and lbm only
	5000:  "c912b9520e23c221", // the secondary sweep of serve_kv and crash_recover
	40000: "7d21e155e266b4c9", // figsweep: paper scale
}
