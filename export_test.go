package tpa

// Test hooks for the external tpa_test package.
var (
	ShuffledGraph = shuffledGraph
	IsPermuted    = isPermuted
)

// WalkMatvecs reports the push and pull applications of e's walk, which
// ShardMatvecs reports for sharded engines only.
func WalkMatvecs(e *Engine) (push, pull int64) { return e.walk.MatvecCounts() }
