// Package violating seeds adllint findings: discarded Close errors
// (closepropagate), as a bare statement and as a direct defer.
package violating

// Row stands in for the engine's row type.
type Row struct{}

// Rows structurally matches exec.Rows.
type Rows interface {
	Next() (Row, bool, error)
	Close() error
}

// Counter counts the rows of its source.
type Counter struct {
	src  Rows
	seen int
}

// Next bumps the counter.
func (c *Counter) Next() (Row, bool, error) {
	c.seen++
	return c.src.Next()
}

// Close discards the source's Close error — a closepropagate violation.
func (c *Counter) Close() error {
	c.src.Close()
	return nil
}

// First returns the first row and drops the Close error in a defer — another.
func First(rows Rows) (Row, bool, error) {
	defer rows.Close()
	return rows.Next()
}
