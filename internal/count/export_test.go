package count

// Test hooks for the external count_test package.
var (
	RandomNFTA      = randomNFTA
	RandomDenseNFTA = randomDenseNFTA
	Ambiguous       = ambiguous
	HeavyOverlap    = heavyOverlap
	FullBinary      = fullBinary
)
