package tpa

// Test hooks for the external tpa_test package.
var (
	ShuffledGraph = shuffledGraph
	IsPermuted    = isPermuted
)
