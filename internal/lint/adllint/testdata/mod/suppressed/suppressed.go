// Package suppressed carries the same violations as package violating, each
// muted by a documented //lint:adllint directive in both accepted positions
// (trailing and standalone-above).
package suppressed

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

// Close discards the source's Close error (trailing suppression form).
func (c *Counter) Close() error {
	c.src.Close() //lint:adllint closepropagate synthetic testdata; error intentionally dropped
	return nil
}

// First drops the Close error in a defer (standalone suppression form).
func First(rows Rows) (Row, bool, error) {
	//lint:adllint closepropagate synthetic testdata exercising the standalone form
	defer rows.Close()
	return rows.Next()
}
