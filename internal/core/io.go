package core

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/dict"
	"repro/internal/timeline"
)

// The on-disk format mirrors the labeled arrays of §4 (Table 2):
//
//	schema.csv         attribute name, kind ("static" | "time-varying")
//	nodes.csv          id, one 0/1 column per time point   (array V)
//	edges.csv          u, v, one 0/1 column per time point (array E)
//	static.csv         id, one column per static attribute (array S)
//	varying_<attr>.csv id, one column per time point       (array A_i)
//
// Missing time-varying values are written as "-" (as in Table 2).

const missingMark = "-"

// WriteDir writes g to directory dir, creating it if needed.
func WriteDir(g *Graph, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "schema.csv"), func(w *csv.Writer) {
		w.Write([]string{"name", "kind"})
		for _, a := range g.attrs {
			w.Write([]string{a.Name, a.Kind.String()})
		}
	}); err != nil {
		return err
	}

	labels := g.tl.Labels()
	if err := writeCSV(filepath.Join(dir, "nodes.csv"), func(w *csv.Writer) {
		w.Write(append([]string{"id"}, labels...))
		row := make([]string, 1+len(labels))
		for n := range g.nodeLabels {
			row[0] = g.nodeLabels[n]
			for t := range labels {
				row[1+t] = bit(g.nodeTau[n].Contains(t))
			}
			w.Write(row)
		}
	}); err != nil {
		return err
	}

	if err := writeCSV(filepath.Join(dir, "edges.csv"), func(w *csv.Writer) {
		w.Write(append([]string{"u", "v"}, labels...))
		row := make([]string, 2+len(labels))
		for e, ep := range g.edges {
			row[0] = g.nodeLabels[ep.U]
			row[1] = g.nodeLabels[ep.V]
			for t := range labels {
				row[2+t] = bit(g.edgeTau[e].Contains(t))
			}
			w.Write(row)
		}
	}); err != nil {
		return err
	}

	var staticAttrs []AttrID
	for a := range g.attrs {
		if g.attrs[a].Kind == Static {
			staticAttrs = append(staticAttrs, AttrID(a))
		}
	}
	if len(staticAttrs) > 0 {
		if err := writeCSV(filepath.Join(dir, "static.csv"), func(w *csv.Writer) {
			hdr := []string{"id"}
			for _, a := range staticAttrs {
				hdr = append(hdr, g.attrs[a].Name)
			}
			w.Write(hdr)
			row := make([]string, 1+len(staticAttrs))
			for n := range g.nodeLabels {
				row[0] = g.nodeLabels[n]
				for i, a := range staticAttrs {
					c := g.static[a][n]
					if c == dict.None {
						row[1+i] = missingMark
					} else {
						row[1+i] = g.dicts[a].Value(c)
					}
				}
				w.Write(row)
			}
		}); err != nil {
			return err
		}
	}

	for a := range g.attrs {
		if g.attrs[a].Kind != TimeVarying {
			continue
		}
		name := filepath.Join(dir, "varying_"+g.attrs[a].Name+".csv")
		if err := writeCSV(name, func(w *csv.Writer) {
			w.Write(append([]string{"id"}, labels...))
			row := make([]string, 1+len(labels))
			for n := range g.nodeLabels {
				row[0] = g.nodeLabels[n]
				for t := range labels {
					c := g.VaryingValue(AttrID(a), NodeID(n), timeline.Time(t))
					if c == dict.None {
						row[1+t] = missingMark
					} else {
						row[1+t] = g.dicts[a].Value(c)
					}
				}
				w.Write(row)
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// writeCSV writes the file fn fills. A failed write makes every later one
// fail too, so the error is read once, after the flush.
func writeCSV(path string, fn func(*csv.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	fn(w)
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadDir loads a graph previously written with WriteDir.
func ReadDir(dir string) (*Graph, error) {
	schema, err := readAll(filepath.Join(dir, "schema.csv"))
	if err != nil {
		return nil, err
	}
	var attrs []AttrSpec
	for _, row := range schema[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("core: malformed schema row %v", row)
		}
		var kind AttrKind
		switch row[1] {
		case "static":
			kind = Static
		case "time-varying":
			kind = TimeVarying
		default:
			return nil, fmt.Errorf("core: unknown attribute kind %q", row[1])
		}
		attrs = append(attrs, AttrSpec{Name: row[0], Kind: kind})
	}

	nodes, err := readAll(filepath.Join(dir, "nodes.csv"))
	if err != nil {
		return nil, err
	}
	if len(nodes[0]) < 2 {
		return nil, fmt.Errorf("core: nodes.csv has no time columns")
	}
	tl, err := timeline.New(nodes[0][1:]...)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(tl, attrs...)
	for _, row := range nodes[1:] {
		if len(row) != 1+tl.Len() {
			return nil, fmt.Errorf("core: malformed node row %v", row)
		}
		n := b.AddNode(row[0])
		for t := 0; t < tl.Len(); t++ {
			switch row[1+t] {
			case "1":
				b.SetNodeTime(n, timeline.Time(t))
			case "0":
			default:
				return nil, fmt.Errorf("core: bad existence flag %q for node %s", row[1+t], row[0])
			}
		}
	}

	edges, err := readAll(filepath.Join(dir, "edges.csv"))
	if err != nil {
		return nil, err
	}
	for _, row := range edges[1:] {
		if len(row) != 2+tl.Len() {
			return nil, fmt.Errorf("core: malformed edge row %v", row)
		}
		u, ok := b.nodeIndex[row[0]]
		if !ok {
			return nil, fmt.Errorf("core: edge references unknown node %q", row[0])
		}
		v, ok := b.nodeIndex[row[1]]
		if !ok {
			return nil, fmt.Errorf("core: edge references unknown node %q", row[1])
		}
		e := b.AddEdge(u, v)
		for t := 0; t < tl.Len(); t++ {
			switch row[2+t] {
			case "1":
				b.SetEdgeTime(e, timeline.Time(t))
			case "0":
			default:
				return nil, fmt.Errorf("core: bad existence flag %q for edge (%s,%s)", row[2+t], row[0], row[1])
			}
		}
	}

	if slices.ContainsFunc(attrs, func(a AttrSpec) bool { return a.Kind == Static }) {
		static, err := readAll(filepath.Join(dir, "static.csv"))
		if err != nil {
			return nil, err
		}
		cols := make([]AttrID, 0, len(static[0])-1)
		for _, name := range static[0][1:] {
			a := slices.IndexFunc(attrs, func(a AttrSpec) bool { return a.Name == name && a.Kind == Static })
			if a < 0 {
				return nil, fmt.Errorf("core: static.csv references unknown attribute %q", name)
			}
			cols = append(cols, AttrID(a))
		}
		for _, row := range static[1:] {
			if len(row) != 1+len(cols) {
				return nil, fmt.Errorf("core: malformed static row %v", row)
			}
			n, ok := b.nodeIndex[row[0]]
			if !ok {
				return nil, fmt.Errorf("core: static.csv references unknown node %q", row[0])
			}
			for i, a := range cols {
				if row[1+i] != missingMark {
					b.SetStatic(a, n, row[1+i])
				}
			}
		}
	}

	for a := range attrs {
		if attrs[a].Kind != TimeVarying {
			continue
		}
		rows, err := readAll(filepath.Join(dir, "varying_"+attrs[a].Name+".csv"))
		if err != nil {
			return nil, err
		}
		for _, row := range rows[1:] {
			if len(row) != 1+tl.Len() {
				return nil, fmt.Errorf("core: malformed varying_%s row %v", attrs[a].Name, row)
			}
			n, ok := b.nodeIndex[row[0]]
			if !ok {
				return nil, fmt.Errorf("core: varying_%s.csv references unknown node %q", attrs[a].Name, row[0])
			}
			for t := 0; t < tl.Len(); t++ {
				if row[1+t] != missingMark {
					b.SetVarying(AttrID(a), n, timeline.Time(t), row[1+t])
				}
			}
		}
	}
	return b.Build()
}

// readAll reads a CSV file that has at least its header row.
func readAll(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err == nil && len(rows) == 0 {
		err = fmt.Errorf("core: %s is empty", filepath.Base(path))
	}
	return rows, err
}
