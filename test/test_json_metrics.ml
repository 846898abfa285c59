(* Engine.Json emitter and parser. *)

module Json = Engine.Json

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_scalars () =
  let check expected v =
    Alcotest.(check string) expected expected (Json.to_string ~minify:true v)
  in
  check "null" Json.Null;
  check "true" (Json.Bool true);
  check "false" (Json.Bool false);
  check "42" (Json.Int 42);
  check "-7" (Json.Int (-7));
  check "1.5" (Json.Float 1.5);
  check "3" (Json.Float 3.);
  check "\"hi\"" (Json.String "hi")

let test_json_nonfinite_floats () =
  (* NaN and infinities have no JSON representation; they degrade to null
     rather than emitting unparseable tokens. *)
  List.iter
    (fun v ->
      Alcotest.(check string) "non-finite -> null" "null"
        (Json.to_string ~minify:true (Json.Float v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_escaping () =
  let cases =
    [
      ("plain", "plain");
      ("with \"quotes\"", "with \\\"quotes\\\"");
      ("back\\slash", "back\\\\slash");
      ("line\nbreak", "line\\nbreak");
      ("tab\there", "tab\\there");
      ("cr\rhere", "cr\\rhere");
      ("bell\007", "bell\\u0007");
    ]
  in
  List.iter
    (fun (raw, escaped) ->
      Alcotest.(check string) raw escaped (Json.escape raw);
      Alcotest.(check string) ("quoted " ^ raw)
        ("\"" ^ escaped ^ "\"")
        (Json.to_string ~minify:true (Json.String raw)))
    cases

let test_json_nested () =
  let doc =
    Json.Obj
      [
        ("a", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("b", Json.Obj [ ("c", Json.Null); ("d", Json.List []) ]);
      ]
  in
  Alcotest.(check string) "minified nesting"
    "{\"a\":[1,2],\"b\":{\"c\":null,\"d\":[]}}"
    (Json.to_string ~minify:true doc);
  (* Pretty mode carries the same content, just with layout. *)
  let strip s =
    String.concat ""
      (String.split_on_char '\n'
         (String.concat "" (String.split_on_char ' ' s)))
  in
  Alcotest.(check string) "pretty matches minified modulo whitespace"
    (strip (Json.to_string ~minify:true doc))
    (strip (Json.to_string doc))

(* ------------------------------------------------------------------ *)
(* Json parser                                                         *)
(* ------------------------------------------------------------------ *)

let json_testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Json.to_string ~minify:true v))
    ( = )

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse of %S failed: %s" s e

let test_parse_scalars () =
  let check expected s =
    Alcotest.check json_testable s expected (parse_ok s)
  in
  check Json.Null "null";
  check (Json.Bool true) "true";
  check (Json.Bool false) " false ";
  check (Json.Int 42) "42";
  check (Json.Int (-7)) "-7";
  check (Json.Float 1.5) "1.5";
  check (Json.Float 2e3) "2e3";
  check (Json.Float (-0.25)) "-2.5e-1";
  check (Json.String "hi") "\"hi\"";
  check (Json.List []) "[]";
  check (Json.Obj []) "{}"

let test_parse_escapes () =
  Alcotest.check json_testable "escapes"
    (Json.String "a\"b\\c\nd\te/")
    (parse_ok "\"a\\\"b\\\\c\\nd\\te\\/\"");
  Alcotest.check json_testable "unicode bmp"
    (Json.String "\xc2\xb5 \xe2\x82\xac")
    (parse_ok "\"\\u00b5 \\u20ac\"")

let test_parse_nested () =
  Alcotest.check json_testable "nested"
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
         ("b", Json.Obj [ ("c", Json.Bool true) ]);
       ])
    (parse_ok {| { "a": [1, 2.5, null], "b": {"c": true} } |})

let test_parse_errors () =
  let rejects s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" s
    | Error _ -> ()
  in
  List.iter rejects
    [ ""; "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "{1: 2}" ]

let test_parse_roundtrip () =
  (* Documents the emitter produces must parse back to themselves.  The
     one deliberate asymmetry: an integer-valued Float emits without a
     fraction, so it reparses as Int — hence the textual check for the
     whole doc and a structural check on a fraction-carrying subset. *)
  let doc =
    Json.Obj
      [
        ("schema", Json.String "slowcc-bench-engine/2");
        ( "micro_ns_per_run",
          Json.Obj [ ("a b", Json.Float 1234.5); ("c", Json.Null) ] );
        ("alloc_minor_words_per_sim_s", Json.Float 154905.);
        ("list", Json.List [ Json.Int 1; Json.Bool false; Json.String "x\n" ]);
      ]
  in
  let reprint s = Json.to_string ~minify:true (parse_ok s) in
  Alcotest.(check string)
    "textual fixpoint (pretty)"
    (Json.to_string ~minify:true doc)
    (reprint (Json.to_string doc));
  Alcotest.(check string)
    "textual fixpoint (minified)"
    (Json.to_string ~minify:true doc)
    (reprint (Json.to_string ~minify:true doc));
  let fractional =
    Json.Obj [ ("a", Json.Float 1234.5); ("b", Json.Float 1e-7) ]
  in
  Alcotest.check json_testable "structural on fractional floats" fractional
    (parse_ok (Json.to_string fractional))

let test_member () =
  let doc = parse_ok {| {"x": 1, "y": {"z": 2}} |} in
  Alcotest.check
    Alcotest.(option json_testable)
    "present" (Some (Json.Int 1)) (Json.member "x" doc);
  Alcotest.check Alcotest.(option json_testable) "absent" None
    (Json.member "q" doc);
  Alcotest.check
    Alcotest.(option json_testable)
    "non-object" None
    (Json.member "x" (Json.Int 3))

let suite =
  [
    Alcotest.test_case "json scalars" `Quick test_json_scalars;
    Alcotest.test_case "json non-finite floats" `Quick
      test_json_nonfinite_floats;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json nesting" `Quick test_json_nested;
    Alcotest.test_case "parse scalars" `Quick test_parse_scalars;
    Alcotest.test_case "parse escapes" `Quick test_parse_escapes;
    Alcotest.test_case "parse nesting" `Quick test_parse_nested;
    Alcotest.test_case "parse rejects malformed" `Quick test_parse_errors;
    Alcotest.test_case "emit/parse round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "member lookup" `Quick test_member;
  ]
