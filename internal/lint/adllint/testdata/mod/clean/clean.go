// Package clean passes every adllint analyzer: a stream whose Close error is
// propagated on every path.
package clean

// Row stands in for the engine's row type.
type Row struct{}

// Rows structurally matches exec.Rows.
type Rows interface {
	Next() (Row, bool, error)
	Close() error
}

// Filter is a well-behaved stream over another.
type Filter struct {
	src  Rows
	done bool
}

// Next pulls from the source.
func (f *Filter) Next() (Row, bool, error) {
	if f.done {
		return Row{}, false, nil
	}
	return f.src.Next()
}

// Close tears down the source, propagating its error.
func (f *Filter) Close() error {
	return f.src.Close()
}

// Collect drains a stream with the propagation idiom.
func Collect(rows Rows) (out []Row, err error) {
	defer func() {
		if cerr := rows.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for {
		r, ok, nerr := rows.Next()
		if nerr != nil {
			return nil, nerr
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}
