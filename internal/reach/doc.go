// Package reach holds the module's reachability ratchet. Its test,
// TestReachability, type-checks every non-test file of the module under
// one build context (linux/amd64, no tags), walks what the program's mains
// and the root package's API can reach, and compares every function and
// method that nothing reaches with testdata/unreachable.txt, a list that
// only shrinks: each row names a symbol and why it stays (benchmark,
// oracle <Test> or fixture). Run it with make reach after any deletion or
// any new exported symbol.
//
// The package has no code outside its tests.
package reach
