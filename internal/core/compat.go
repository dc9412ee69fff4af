package core

// Options is the retired fill-schedule option, now inert: every solver
// picks its schedule from the lattice size (see Solver.fill). It
// remains, with Parallel and the trailing ...Options parameter of
// SweepSolver.Reuse, MVASweepSolver.Reuse and revenue.NewWithSweep,
// only because the load benchmark's stage replay (cmd/xbarload) is
// compiled against those signatures and changes only together with the
// benchmark. Nothing else uses them.
type Options struct{ Workers, Tile int }

// Parallel returns an inert Options value (see Options).
func Parallel(workers, tile int) Options { return Options{Workers: workers, Tile: tile} }
