// Package a is closepropagate testdata: the discard shapes and the accepted
// drain idioms, over row and batch streams.
package a

// Row and Batch stand in for the engine's row and batch types.
type Row struct{}
type Batch struct{}

// Rows structurally matches exec.Rows, Batches exec.Batches.
type Rows interface {
	Next() (Row, bool, error)
	Close() error
}
type Batches interface {
	NextBatch() (Batch, bool, error)
	CloseVec() error
}

// leaf is a concrete stream with pointer-receiver methods.
type leaf struct{ pos int }

func (l *leaf) Next() (Row, bool, error) { return Row{}, false, nil }
func (l *leaf) Close() error             { return nil }

// file has a Close but is no stream: its error is the caller's business.
type file struct{}

func (file) Close() error { return nil }

// --- discard shapes ---

func discards(op Rows, bs Batches, l leaf, f file) {
	op.Close()       // want `bare statement discards`
	_ = op.Close()   // want `assignment to _ discards`
	bs.CloseVec()    // want `bare statement discards the CloseVec error`
	go bs.CloseVec() // want `go statement discards`
	l.Close()        // want `bare statement discards`
	f.Close()
}

func deferred(op Rows) error {
	defer op.Close() // want `direct defer discards`
	return nil
}

// propagate is the accepted idiom: the deferred closure folds the Close
// error into the named return.
func propagate(op Rows) (err error) {
	defer func() {
		if cerr := op.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return nil
}

// returned is also fine: the error leaves the function.
func returned(op Rows) error {
	return op.Close()
}
