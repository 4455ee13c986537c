package atpg

// RandomNetlist lends the random circuits of the package's own tests to
// its external tests.
var RandomNetlist = randomNetlist
