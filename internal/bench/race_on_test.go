//go:build race

package bench

// raceEnabled lets the table-pinning tests skip under the race detector:
// they replay single-goroutine simulations for their bytes (the worker pool
// they run on is raced by the *Deterministic tests), and at ten times the
// cost they would put the package past go test's default timeout.
const raceEnabled = true
