(* Frontend driver: source text -> verified Bitc module.  Plays the role
   of clang's CUDA frontend (gpucc) in Figure 2 of the paper. *)

type error = { file : string; line : int; col : int; msg : string }

exception Error of error

let error_to_string e = Printf.sprintf "%s:%d:%d: %s" e.file e.line e.col e.msg

let compile ~file src : Bitc.Irmod.t =
  let reraise ~line ~col msg = raise (Error { file; line; col; msg }) in
  try
    let ast = Parser.parse_program ~file src in
    let tast = Typecheck.check_program ast in
    let m = Lower.lower_program tast in
    Bitc.Verify.run m;
    m
  with
  | Lexer.Error { line; col; msg; _ } -> reraise ~line ~col ("lex error: " ^ msg)
  | Parser.Error { line; col; msg; _ } -> reraise ~line ~col ("parse error: " ^ msg)
  | Typecheck.Error { pos; msg; _ } ->
    reraise ~line:pos.line ~col:pos.col ("type error: " ^ msg)
  | Lower.Error msg -> reraise ~line:0 ~col:0 ("lowering error: " ^ msg)
  | Bitc.Verify.Invalid msg -> reraise ~line:0 ~col:0 ("verifier error: " ^ msg)

let compile_result ~file src =
  match compile ~file src with
  | m -> Ok m
  | exception Error e -> Error (error_to_string e)
