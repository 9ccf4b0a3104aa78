package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	mtls "repro"
	"repro/internal/stream"
)

// oracle is an offline stream.Engine fed the rows the run appended:
// the reference every drained report must deep-equal. Sites are fed in
// order, which is the aggregator's sensor-ordered merge order.
type oracle struct {
	eng *stream.Engine
}

func newOracle(ds *dataset) (*oracle, error) {
	in := mtls.InputFromBuild(ds.build)
	in.Raw = nil
	eng, err := stream.New(stream.Config{Input: in})
	if err != nil {
		return nil, fmt.Errorf("oracle engine: %w", err)
	}
	eng.IngestCertBatch(ds.certs)
	for _, st := range ds.sites {
		eng.IngestConnBatch(ds.conns[st.lo:st.hi])
	}
	eng.Drain()
	return &oracle{eng: eng}, nil
}

func (or *oracle) close() { or.eng.Close() }

// checkBatch verifies that the streaming oracle equals the batch
// pipeline mtls.Analyze over the same build — the method cmd/mtlsload
// uses to show the appended rows are the build.
func (or *oracle) checkBatch(ds *dataset) error {
	got, err := json.Marshal(or.eng.Analysis())
	if err != nil {
		return err
	}
	want, err := json.Marshal(mtls.Analyze(ds.build))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("offline stream engine diverges from mtls.Analyze")
	}
	return nil
}

// check compares one daemon report body with the oracle's report.
// Both sides go through JSON so map order and indentation cannot
// cause false mismatches.
func (or *oracle) check(name string, body []byte) error {
	want, err := or.eng.Report(name)
	if err != nil {
		return fmt.Errorf("oracle report %s: %w", name, err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var gotAny, wantAny any
	if err := json.Unmarshal(body, &gotAny); err != nil {
		return fmt.Errorf("decode daemon report %s: %w", name, err)
	}
	if err := json.Unmarshal(wantJSON, &wantAny); err != nil {
		return err
	}
	if !reflect.DeepEqual(gotAny, wantAny) {
		return fmt.Errorf("report %s differs from the offline engine", name)
	}
	return nil
}
