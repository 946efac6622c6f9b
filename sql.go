package janus

import (
	"errors"
	"fmt"

	"janusaqp/internal/sqlparse"
)

// TableSchema names a template's columns for the SQL interface: PredCols
// matches the template's PredicateDims order and AggCols matches the
// tuples' Vals order.
type TableSchema = sqlparse.Schema

// validateSchema is the single schema admission predicate every
// registration path shares — RegisterSchema for live attachment, and the
// checkpoint/LoadTemplate restore paths (a stale checkpoint must not
// register a schema the live path would reject). PredCols must match the
// template's predicate arity, and AggCols must match the synopsis's
// tracked NumVals — a longer AggCols would let SQL name a column whose
// reads silently come back as zero (Tuple.Val defaults out-of-range
// columns to 0), and a shorter one would hide real columns from SQL.
func validateSchema(sc TableSchema, tmpl Template, numVals int) error {
	if len(sc.PredCols) != len(tmpl.PredicateDims) {
		return fmt.Errorf("janus: %w: schema has %d predicate columns, template %q has %d",
			ErrSchemaMismatch, len(sc.PredCols), tmpl.Name, len(tmpl.PredicateDims))
	}
	if len(sc.AggCols) != numVals {
		return fmt.Errorf("janus: %w: schema names %d aggregation columns, template %q tracks %d",
			ErrSchemaMismatch, len(sc.AggCols), tmpl.Name, numVals)
	}
	return nil
}

// RegisterSchema attaches a SQL schema to a template so SQL requests can
// resolve column names. The schema's Table is the name used in FROM; the
// column lists are validated against the synopsis (see validateSchema).
func (e *Engine) RegisterSchema(template string, sc TableSchema) error {
	s, ok := e.lookup(template)
	if !ok {
		return fmt.Errorf("janus: %w %q", ErrUnknownTemplate, template)
	}
	// upd before reg.Lock, preserving the engine's lock order: a bare
	// reg.Lock could go pending under forEachSynUpdLocked's long-held read
	// lock and park every new reader behind it.
	e.upd.Lock()
	defer e.upd.Unlock()
	// Under upd no re-initialization can swap the dpt, so its config is
	// stable; the read still takes the synopsis lock to respect ordering.
	s.mu.RLock()
	numVals := s.dpt.Config().NumVals
	s.mu.RUnlock()
	if err := validateSchema(sc, s.tmpl, numVals); err != nil {
		return err
	}
	e.reg.Lock()
	defer e.reg.Unlock()
	s.schema = &sc
	return nil
}

// Schema returns the SQL schema registered for a template, if any. The
// second return is false when the template is unknown or has no schema.
func (e *Engine) Schema(template string) (TableSchema, bool) {
	s, ok := e.lookup(template)
	if !ok {
		return TableSchema{}, false
	}
	e.reg.RLock()
	defer e.reg.RUnlock()
	if s.schema == nil {
		return TableSchema{}, false
	}
	return *s.schema, true
}

// compileSQL parses one statement and compiles it against the registered
// schemas into the unified request form: the answering template's name and
// the structured query to run against it.
func (e *Engine) compileSQL(sql string) (string, Query, error) {
	name := ""
	q, table, err := sqlparse.CompileSQL(sql, func(table string) (sqlparse.Schema, bool) {
		e.reg.RLock()
		defer e.reg.RUnlock()
		for _, s := range e.ordered {
			if s.schema != nil && sqlparse.TableEqual(s.schema.Table, table) {
				name = s.tmpl.Name
				return *s.schema, true
			}
		}
		return sqlparse.Schema{}, false
	})
	if err != nil {
		if errors.Is(err, sqlparse.ErrUnknownTable) {
			return "", Query{}, fmt.Errorf("janus: no template registered for table %q: %w", table, ErrUnknownTemplate)
		}
		return "", Query{}, err
	}
	return name, q, nil
}
