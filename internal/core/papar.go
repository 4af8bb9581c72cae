package core

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/dataformat"
)

// Framework is the top-level PaPar entry point (Fig. 3): it accumulates
// input-data descriptions and operator registrations, parses a workflow, and
// produces a generated partitioner ready to run.
type Framework struct {
	schemas map[string]*dataformat.Schema
	// sources keeps the raw XML of registered input descriptions so plans
	// can embed them into emitted Go programs.
	sources map[string]string
}

// NewFramework returns an empty framework with the built-in operators
// (Sort, Group, Split, Distribute, the five add-ons, and the three format
// operators) available.
func NewFramework() *Framework {
	return &Framework{
		schemas: map[string]*dataformat.Schema{},
		sources: map[string]string{},
	}
}

// RegisterInputConfig parses an <input> description (Fig. 4/5) and registers
// its schema under its id.
func (f *Framework) RegisterInputConfig(xmlData []byte) (*dataformat.Schema, error) {
	s, err := config.ParseInput(xmlData)
	if err != nil {
		return nil, err
	}
	if err := f.RegisterSchema(s); err != nil {
		return nil, err
	}
	f.sources[s.ID] = string(xmlData)
	return s, nil
}

// RegisterInputFile reads and registers an <input> description from a file.
func (f *Framework) RegisterInputFile(path string) (*dataformat.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return f.RegisterInputConfig(data)
}

// RegisterSchema registers an already-built schema.
func (f *Framework) RegisterSchema(s *dataformat.Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, dup := f.schemas[s.ID]; dup {
		return fmt.Errorf("core: input schema %q registered twice", s.ID)
	}
	f.schemas[s.ID] = s
	return nil
}

// Schema returns a registered schema by id.
func (f *Framework) Schema(id string) (*dataformat.Schema, bool) {
	s, ok := f.schemas[id]
	return s, ok
}

// CompileWorkflowConfig parses a <workflow> description (Fig. 8/10) and
// lowers it to a Plan against the registered schemas — PaPar's whole
// front-to-back code-generation path.
func (f *Framework) CompileWorkflowConfig(xmlData []byte, runtimeArgs map[string]string) (*Plan, error) {
	wf, err := config.ParseWorkflow(xmlData)
	if err != nil {
		return nil, err
	}
	plan, err := Compile(wf, f.schemas, runtimeArgs)
	if err != nil {
		return nil, err
	}
	plan.SourceWorkflowXML = string(xmlData)
	if src, ok := f.sources[plan.InputSchema.ID]; ok {
		plan.SourceInputXMLs = append(plan.SourceInputXMLs, src)
	}
	return plan, nil
}

// CompileWorkflowFile reads and compiles a workflow description from a file.
func (f *Framework) CompileWorkflowFile(path string, runtimeArgs map[string]string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return f.CompileWorkflowConfig(data, runtimeArgs)
}

// Run compiles nothing — it executes an already-compiled plan on a cluster
// of the given node count (2 ranks per node, matching the paper's one MPI
// process per socket).
func (f *Framework) Run(plan *Plan, nodes int, in Input) (*Result, error) {
	cl := cluster.New(cluster.DefaultConfig(nodes))
	return Execute(cl, plan, in)
}
