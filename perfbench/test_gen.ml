(* The generators decide what every benchmark run measures: a seed must
   always name the same inputs, and every seed must name the same work. *)

let stream seed = Gen.serve_stream ~seed

let passes next n = List.init n (fun _ -> next ())
let static_passes seed n = passes (Gen.static_passes ~seed ()) n
let sim_passes seed n = passes (Gen.sim_passes ~seed) n
let sim_ids passes = List.map (List.map Gen.sim_input_id) passes

let same_seed_same_inputs () =
  Alcotest.(check (list (list string)))
    "op sequences" (sim_ids (sim_passes 7 3)) (sim_ids (sim_passes 7 3));
  Alcotest.(check (list string))
    "request lines"
    (List.map (fun (s : Gen.stream_item) -> s.line) (stream 7))
    (List.map (fun (s : Gen.stream_item) -> s.line) (stream 7));
  Alcotest.(check (list string))
    "kernel variants"
    (List.concat_map (List.map (fun (v : Gen.variant) -> v.v_source)) (static_passes 7 3))
    (List.concat_map (List.map (fun (v : Gen.variant) -> v.v_source)) (static_passes 7 3))

let seeds_differ () =
  Alcotest.(check bool)
    "op order" false (sim_ids (sim_passes 1 1) = sim_ids (sim_passes 2 1));
  Alcotest.(check bool)
    "variant names" false (static_passes 1 1 = static_passes 2 1)

(* Composition: what is done, ignoring order and invented names. *)
let sorted l = List.sort compare l

let sim_composition seed = List.map (fun p -> sorted (List.map Gen.sim_input_id p)) (sim_passes seed 2)

(* Everything but which earlier answers the hits repeat. *)
let stream_composition seed =
  let items = stream seed in
  ( sorted
      (List.filter_map
         (fun (s : Gen.stream_item) -> if s.kind = "hit" then None else Some (s.key, s.kind))
         items),
    List.length (List.filter (fun (s : Gen.stream_item) -> s.kind = "hit") items) )

let static_composition seed =
  List.map
    (fun pass ->
      sorted (List.map (fun (v : Gen.variant) -> (v.v_app, String.length v.v_source)) pass))
    (static_passes seed 2)

let seeds_same_composition () =
  List.iter
    (fun seed ->
      Alcotest.(check (list (list string))) "sim-native" (sim_composition 1) (sim_composition seed);
      Alcotest.(check (pair (list (pair string string)) int))
        "serve-profile" (stream_composition 1) (stream_composition seed);
      Alcotest.(check (list (list (pair string int))))
        "compile-static" (static_composition 1) (static_composition seed))
    [ 2; 3; 99; 12345 ]

(* A hit repeats an earlier request with the same key; hits and static
   answers stay under a third of the stream. *)
let stream_shape () =
  List.iter
    (fun seed ->
      let items = Array.of_list (stream seed) in
      Array.iteri
        (fun i (s : Gen.stream_item) ->
          match s.repeat_of with
          | Some j ->
            Alcotest.(check bool) "repeat after its original" true (j < i);
            Alcotest.(check string) "repeat key" items.(j).key s.key
          | None -> ())
        items;
      let fast =
        Array.fold_left
          (fun n (s : Gen.stream_item) -> if s.kind = "computed" then n else n + 1)
          0 items
      in
      Alcotest.(check bool) "under a third" true (3 * fast < Array.length items))
    [ 1; 2; 3 ]

let variants_compile () =
  List.iter
    (fun seed ->
      List.iter
        (List.iter (fun (v : Gen.variant) ->
             match Minicuda.Frontend.compile_result ~file:v.v_file v.v_source with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "%s does not compile: %s" v.v_file e))
        (static_passes seed 20))
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "perfbench-gen"
    [ ( "generators",
        [ Alcotest.test_case "same seed, same inputs" `Quick same_seed_same_inputs;
          Alcotest.test_case "seeds differ" `Quick seeds_differ;
          Alcotest.test_case "same composition" `Quick seeds_same_composition;
          Alcotest.test_case "stream shape" `Quick stream_shape;
          Alcotest.test_case "variants compile" `Quick variants_compile ] ) ]
