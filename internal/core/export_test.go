package core

// RefMeans is refMeans, Algorithm 1 line 3 written as plain loops, for the
// external test package's end-to-end reference (algorithm1_test.go).
var RefMeans = refMeans
