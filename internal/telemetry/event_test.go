package telemetry

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// payloadField is one Event payload field as reflection sees it.
type payloadField struct {
	index     int // struct field index
	name      string
	omitempty bool
	kind      reflect.Kind
}

// payloadFields lists Event's fields other than Type and T, by JSON key.
func payloadFields(t *testing.T) map[string]payloadField {
	t.Helper()
	fields := map[string]payloadField{}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Type" || f.Name == "T" {
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		fields[name] = payloadField{i, f.Name, opts == "omitempty", f.Type.Kind()}
	}
	return fields
}

// columnKindOf is the column kind a field of reflect kind k must have.
var columnKindOf = map[reflect.Kind]ColumnKind{
	reflect.Int: IntColumn, reflect.Int64: IntColumn,
	reflect.Float64: FloatColumn, reflect.Bool: BoolColumn, reflect.String: StringColumn,
}

// TestColumnsMatchEvent holds the schema table to the Event struct it
// describes: every payload field has exactly one row, named by its JSON
// key, of the kind its Go type implies, always stored exactly when its tag
// lacks omitempty, with a bit of its own; the rows run always-stored first,
// then in struct order (the binlog wire order); and each row's setter and
// Event.Field reach that field and no other.
func TestColumnsMatchEvent(t *testing.T) {
	fields := payloadFields(t)
	var all FieldSet
	prev := struct {
		always bool
		index  int
	}{true, -1}
	for i, col := range Columns {
		f, ok := fields[col.Name]
		if !ok {
			t.Errorf("row %d is named %q, which is no payload field's JSON key", i, col.Name)
			continue
		}
		delete(fields, col.Name)
		if col.Always == f.omitempty {
			t.Errorf("%s: always stored = %v, but its tag has omitempty = %v", col.Name, col.Always, f.omitempty)
		}
		if want, ok := columnKindOf[f.kind]; !ok || col.Kind != want {
			t.Errorf("%s: kind %d for a Go %v field", col.Name, col.Kind, f.kind)
		}
		if col.Bit == 0 || col.Bit&(col.Bit-1) != 0 || all&col.Bit != 0 {
			t.Errorf("%s: bit %#x is not a single bit of its own", col.Name, uint32(col.Bit))
		}
		all |= col.Bit
		if col.Always && !prev.always || col.Always == prev.always && f.index < prev.index {
			t.Errorf("%s: row %d breaks the order always-stored first, then struct order", col.Name, i)
		}
		prev.always, prev.index = col.Always, f.index

		// The setter and the reader reach this field and no other.
		want, wantS := int64(7+i), ""
		switch col.Kind {
		case BoolColumn:
			want = 1
		case FloatColumn:
			want = int64(math.Float64bits(1.5 + float64(i)))
		case StringColumn:
			want, wantS = 0, col.Name
		}
		var ev Event
		col.Set(&ev, want, wantS)
		if v, s := ev.Field(col.Bit); v != want || s != wantS {
			t.Errorf("%s: set %d/%q, Field reads %d/%q", col.Name, want, wantS, v, s)
		}
		rv := reflect.ValueOf(ev)
		for j := 0; j < rv.NumField(); j++ {
			if set := !rv.Field(j).IsZero(); set != (j == f.index) {
				t.Errorf("%s: setting it leaves struct field %s set = %v", col.Name, rv.Type().Field(j).Name, set)
			}
		}
	}
	for name, f := range fields {
		t.Errorf("payload field %s (%q) has no row in Columns", f.name, name)
	}
	if all != FAll {
		t.Errorf("the rows' bits make %#x, FAll is %#x", uint32(all), uint32(FAll))
	}
}
