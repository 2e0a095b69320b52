package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sqloop/internal/pager"
	"sqloop/internal/sqltypes"
	"sqloop/internal/storage"
)

// The pager's table files carry rows but no schemas: the engine's
// catalog is an in-memory map, so without a manifest a restart would
// come back with durable data it cannot name (and a re-issued CREATE
// TABLE would wipe it). On the disk backend every CREATE and DROP of a
// logged table rewrites catalog.json in the data directory — temp-file
// + fsync + atomic rename, same discipline as internal/ckpt — and
// engine.New recovers the catalog from it before accepting statements.
// Unlogged tables are not in the manifest: they do not outlive their
// engine, and recovery deletes their files. Views and hash indexes are
// session-rebuildable derived state and are deliberately not persisted.

const diskCatalogFile = "catalog.json"

type diskCatalogColumn struct {
	Name string `json:"name"`
	Type string `json:"type"` // sqltypes.ColumnType.String() spelling
}

type diskCatalogTable struct {
	Name    string              `json:"name"`
	Columns []diskCatalogColumn `json:"columns"`
	PK      int                 `json:"pk"` // -1: synthetic rowid keys
}

type diskCatalog struct {
	Version int                `json:"version"`
	Tables  []diskCatalogTable `json:"tables"`
}

// saveDiskCatalog rewrites the manifest from the current catalog map
// after DDL on table changed. Caller holds e.mu. A no-op for the
// in-memory backends and for unlogged tables, which the manifest does
// not name.
func (e *Engine) saveDiskCatalog(changed *Table) error {
	if e.cfg.Backend != storage.KindDisk || changed.unlogged {
		return nil
	}
	e.pagerMu.Lock()
	dir := e.pagerDir
	e.pagerMu.Unlock()
	if dir == "" {
		// No store has been created yet (the catalog can only be empty);
		// the manifest is written with the first table.
		return nil
	}
	cat := diskCatalog{Version: 1}
	for _, t := range e.tables {
		if t.unlogged {
			continue
		}
		ct := diskCatalogTable{Name: t.name, PK: t.pkCol}
		for _, c := range t.schema.Columns {
			ct.Columns = append(ct.Columns, diskCatalogColumn{Name: c.Name, Type: c.Type.String()})
		}
		cat.Tables = append(cat.Tables, ct)
	}
	sort.Slice(cat.Tables, func(i, j int) bool { return cat.Tables[i].Name < cat.Tables[j].Name })
	b, err := json.MarshalIndent(&cat, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".catalog-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(b, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, diskCatalogFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// recoverDiskCatalog deletes the files of every table the manifest does
// not name — the unlogged tables of an earlier engine — then reopens
// every table it names, called once from New before the engine accepts
// statements. Missing manifest means no logged table was ever created.
// On any failure the engine refuses all statements (see cachedParse)
// rather than starting empty over live table files.
func (e *Engine) recoverDiskCatalog() error {
	b, err := os.ReadFile(filepath.Join(e.cfg.DataDir, diskCatalogFile))
	if os.IsNotExist(err) {
		return pager.RemoveOrphans(e.cfg.DataDir, nil)
	}
	if err != nil {
		return err
	}
	var cat diskCatalog
	if err := json.Unmarshal(b, &cat); err != nil {
		return fmt.Errorf("parsing %s: %w", diskCatalogFile, err)
	}
	if cat.Version != 1 {
		return fmt.Errorf("%s: unsupported version %d", diskCatalogFile, cat.Version)
	}
	live := make([]string, len(cat.Tables))
	for i, ct := range cat.Tables {
		live[i] = ct.Name
	}
	if err := pager.RemoveOrphans(e.cfg.DataDir, live); err != nil {
		return err
	}
	db, err := e.pagerDB()
	if err != nil {
		return err
	}
	// Recovered synthetic-key tables keep their old rowids; the global
	// allocator must resume past every one of them or fresh inserts
	// would silently collide with recovered rows.
	var maxRowid int64
	for _, ct := range cat.Tables {
		cols := make([]sqltypes.Column, len(ct.Columns))
		for i, c := range ct.Columns {
			typ, err := sqltypes.ParseColumnType(c.Type)
			if err != nil {
				return fmt.Errorf("table %q: %w", ct.Name, err)
			}
			cols[i] = sqltypes.Column{Name: c.Name, Type: typ}
		}
		schema, err := sqltypes.NewSchema(cols...)
		if err != nil {
			return fmt.Errorf("table %q: %w", ct.Name, err)
		}
		store, err := db.OpenStore(ct.Name)
		if err != nil {
			return fmt.Errorf("table %q: %w", ct.Name, err)
		}
		if ct.PK < 0 {
			store.Scan(func(k sqltypes.Key, _ sqltypes.Row) bool {
				if v := k.Value(); v.Kind() == sqltypes.KindInt && v.Int() > maxRowid {
					maxRowid = v.Int()
				}
				return true
			})
		}
		e.tables[ct.Name] = &Table{
			name:    ct.Name,
			schema:  schema,
			pkCol:   ct.PK,
			store:   store,
			indexes: make(map[string]*hashIndex),
		}
	}
	if maxRowid > e.rowid.Load() {
		e.rowid.Store(maxRowid)
	}
	return nil
}
