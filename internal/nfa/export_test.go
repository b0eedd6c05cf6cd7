package nfa

// Test hooks for the external nfa_test package.
var (
	RandomNFA = randomNFA
	BuildAB   = buildAB
)
