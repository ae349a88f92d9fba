// The benchmark is its own module so that the engine's tier-1 build and
// tests never depend on it. The module path sits under "repro/" on purpose:
// the go tool then lets it import repro/internal/... , and the replace
// directive points at the tree this directory is checked out in.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
