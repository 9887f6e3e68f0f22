(** Frontend driver: MiniCUDA source text to a verified Bitc module.
    Plays the role of clang's CUDA frontend (gpucc) in the paper's
    Figure 2. *)

type error = { file : string; line : int; col : int; msg : string }

exception Error of error

val error_to_string : error -> string

(** Lex, parse, typecheck, lower and verify [src].  Raises {!Error} with
    a source position on any failure. *)
val compile : file:string -> string -> Bitc.Irmod.t

(** Like {!compile} but returning a printable error instead of raising. *)
val compile_result : file:string -> string -> (Bitc.Irmod.t, string) result
