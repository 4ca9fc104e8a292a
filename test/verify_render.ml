(* Text rendering of every symbolic-verification product over a fixed
   corpus: the task catalog (with its sketch extensions), the lint
   fixtures and the example programs.  For each program it prints every
   {!Reach.result} field and every {!Equiv} diagnostic, so the golden
   test in test_verify.ml can pin the analyses byte for byte. *)

module Ast = Farm_almanac.Ast
module Parser = Farm_almanac.Parser
module Typecheck = Farm_almanac.Typecheck
module Equiv = Farm_almanac.Equiv
module Reach = Farm_almanac.Reach
module Diagnostic = Farm_almanac.Diagnostic
module Task_common = Farm_tasks.Task_common
module Catalog = Farm_tasks.Catalog

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let alm_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".alm")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let render_program b ~extra ~host_builtins source =
  let pr fmt = Printf.bprintf b fmt in
  let loaded =
    match Parser.program_result source with
    | Error _ -> None
    | Ok parsed -> Result.to_option (Typecheck.check_diags ~extra parsed)
  in
  match loaded with
  | None -> pr "  does not load\n"
  | Some program ->
      let host_builtins = Equiv.default_host_builtins @ host_builtins in
      List.iter
        (fun (r : Reach.result) ->
          pr "  reach %s complete=%b\n" r.machine r.complete;
          pr "    reachable: %s\n" (String.concat " " r.reachable);
          List.iter
            (fun (pos, tgt) ->
              pr "    effective %s -> %s\n" (Ast.pos_to_string pos) tgt)
            r.effective_transits;
          (match r.livelock with
          | None -> ()
          | Some cycle -> pr "    livelock: %s\n" (String.concat " -> " cycle));
          List.iter
            (fun d -> pr "    %s\n" (Diagnostic.to_string d))
            r.diags)
        (Reach.analyze_program ~host_builtins ~program ());
      List.iter
        (fun d -> pr "  equiv %s\n" (Diagnostic.to_string d))
        (Equiv.verify_program ~host_builtins ~program ())

(* [fixtures]/[examples]: the directories holding the .alm corpora *)
let render ~fixtures ~examples =
  let b = Buffer.create 65536 in
  List.iter
    (fun (e : Task_common.entry) ->
      Printf.bprintf b "catalog %s\n" e.name;
      render_program b ~extra:e.extra_sigs
        ~host_builtins:(List.map fst e.builtins) e.source)
    (Catalog.all @ Catalog.extensions);
  List.iter
    (fun f ->
      Printf.bprintf b "file %s\n" (Filename.basename f);
      render_program b ~extra:[] ~host_builtins:[] (read_file f))
    (alm_files fixtures @ alm_files examples);
  Buffer.contents b
