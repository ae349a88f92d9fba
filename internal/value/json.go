package value

import (
	"encoding/json"
	"fmt"
)

// The JSON codec gives complex objects a stable interchange form. Values are
// tagged one-key objects so kinds survive the round trip unambiguously:
//
//	{"int": 5}  {"float": 2.5}  {"str": "red"}  {"bool": true}
//	{"date": 940101}  {"oid": 12}  {"null": true}
//	{"tuple": [["a", {"int": 1}], ["c", {"set": [...]}]]}
//	{"set": [ ... ]}
//
// Tuple fields are encoded as ordered name/value pairs (objects would lose
// declaration order); sets are encoded in canonical order so equal sets
// encode identically.

// EncodeJSON renders a value in the tagged JSON form.
func EncodeJSON(v Value) ([]byte, error) {
	t, err := toTagged(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(t)
}

// DecodeJSON parses the tagged JSON form.
func DecodeJSON(data []byte) (Value, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("value: decode: %w", err)
	}
	return fromTagged(raw)
}

func toTagged(v Value) (map[string]any, error) {
	switch vv := v.(type) {
	case Null:
		return map[string]any{"null": true}, nil
	case Bool:
		return map[string]any{"bool": bool(vv)}, nil
	case Int:
		return map[string]any{"int": int64(vv)}, nil
	case Float:
		return map[string]any{"float": float64(vv)}, nil
	case String:
		return map[string]any{"str": string(vv)}, nil
	case Date:
		return map[string]any{"date": int32(vv)}, nil
	case OID:
		return map[string]any{"oid": uint64(vv)}, nil
	case *Tuple:
		fields := make([]any, 0, vv.Len())
		for i := 0; i < vv.Len(); i++ {
			name, fv := vv.At(i)
			ft, err := toTagged(fv)
			if err != nil {
				return nil, err
			}
			fields = append(fields, []any{name, ft})
		}
		return map[string]any{"tuple": fields}, nil
	case *Set:
		elems := make([]any, 0, vv.Len())
		for _, e := range vv.Sorted() {
			et, err := toTagged(e)
			if err != nil {
				return nil, err
			}
			elems = append(elems, et)
		}
		return map[string]any{"set": elems}, nil
	}
	return nil, fmt.Errorf("value: cannot encode %T", v)
}

func fromTagged(raw map[string]json.RawMessage) (Value, error) {
	if len(raw) != 1 {
		return nil, fmt.Errorf("value: decode: want exactly one tag, got %d", len(raw))
	}
	for tag, body := range raw {
		switch tag {
		case "null":
			return Null{}, nil
		case "bool":
			var b bool
			if err := json.Unmarshal(body, &b); err != nil {
				return nil, err
			}
			return Bool(b), nil
		case "int":
			var i int64
			if err := json.Unmarshal(body, &i); err != nil {
				return nil, err
			}
			return Int(i), nil
		case "float":
			var f float64
			if err := json.Unmarshal(body, &f); err != nil {
				return nil, err
			}
			return Float(f), nil
		case "str":
			var s string
			if err := json.Unmarshal(body, &s); err != nil {
				return nil, err
			}
			return String(s), nil
		case "date":
			var d int32
			if err := json.Unmarshal(body, &d); err != nil {
				return nil, err
			}
			return Date(d), nil
		case "oid":
			var o uint64
			if err := json.Unmarshal(body, &o); err != nil {
				return nil, err
			}
			return OID(o), nil
		case "tuple":
			var fields []json.RawMessage
			if err := json.Unmarshal(body, &fields); err != nil {
				return nil, err
			}
			shape, vals := emptyShape, make([]Value, 0, len(fields))
			for _, f := range fields {
				var pair []json.RawMessage
				if err := json.Unmarshal(f, &pair); err != nil {
					return nil, err
				}
				if len(pair) != 2 {
					return nil, fmt.Errorf("value: decode: tuple field needs [name, value]")
				}
				var name string
				if err := json.Unmarshal(pair[0], &name); err != nil {
					return nil, err
				}
				var inner map[string]json.RawMessage
				if err := json.Unmarshal(pair[1], &inner); err != nil {
					return nil, err
				}
				fv, err := fromTagged(inner)
				if err != nil {
					return nil, err
				}
				if shape = shape.with(name); shape == nil {
					return nil, fmt.Errorf("value: decode: duplicate tuple attribute %q", name)
				}
				vals = append(vals, fv)
			}
			t, slots := shape.Alloc()
			copy(slots, vals)
			return t, nil
		case "set":
			var elems []map[string]json.RawMessage
			if err := json.Unmarshal(body, &elems); err != nil {
				return nil, err
			}
			s := NewSetCap(len(elems))
			for _, e := range elems {
				ev, err := fromTagged(e)
				if err != nil {
					return nil, err
				}
				s.Add(ev)
			}
			return s, nil
		default:
			return nil, fmt.Errorf("value: decode: unknown tag %q", tag)
		}
	}
	return nil, fmt.Errorf("value: decode: empty document")
}
