//go:build race

package index

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop a share of its Puts at random: an
// allocation count of pooled code says nothing there.
const raceEnabled = true
