module moas/bench

go 1.24

require moas v0.0.0

// The benchmark times the repository's own packages from outside: the
// parent directory is the module under test.
replace moas => ../
