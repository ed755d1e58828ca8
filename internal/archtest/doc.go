// Package archtest holds the module's architecture tests: rules about which
// files may reference which symbols, checked over the source with go/parser
// so that a second path to a single-path operation fails a test. The rules
// are the table in archtest_test.go; run them with go test
// ./internal/archtest.
package archtest
