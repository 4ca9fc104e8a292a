(* Reference oracle for path-condition feasibility: the whole-condition
   check the symbolic executor ran on every fork before it extended path
   conditions incrementally ({!Farm_almanac.Symexec.extend_pc}).  It
   rechecks every atom of the condition, so it needs no invariant about
   how the condition was built.  Used by the differential property in
   test_verify.ml. *)

open Farm_almanac
open Symexec

(* Interval with strictness flags. *)
type iv = { lo : float; lo_s : bool; hi : float; hi_s : bool }

let iv_full = { lo = neg_infinity; lo_s = false; hi = infinity; hi_s = false }

let iv_empty iv =
  iv.lo > iv.hi || (iv.lo = iv.hi && (iv.lo_s || iv.hi_s))

let iv_meet a b =
  let lo, lo_s =
    if a.lo > b.lo then (a.lo, a.lo_s)
    else if b.lo > a.lo then (b.lo, b.lo_s)
    else (a.lo, a.lo_s || b.lo_s)
  in
  let hi, hi_s =
    if a.hi < b.hi then (a.hi, a.hi_s)
    else if b.hi < a.hi then (b.hi, b.hi_s)
    else (a.hi, a.hi_s || b.hi_s)
  in
  { lo; lo_s; hi; hi_s }

(* A-priori range facts about uninterpreted terms. *)
let term_fact = function
  | Sapp (("size" | "stats_size" | "hash" | "abs"), _) ->
      { iv_full with lo = 0. }
  | Sapp ("index_of", _) -> { iv_full with lo = -1. }
  | _ -> iv_full

(* Decompose a comparison atom into (term, op, constant); the comparison
   is normalized so the constant is on the right. *)
let comparison (t, b) =
  let flip = function
    | Ast.Lt -> Ast.Gt
    | Ast.Gt -> Ast.Lt
    | Ast.Le -> Ast.Ge
    | Ast.Ge -> Ast.Le
    | op -> op
  in
  let negate = function
    | Ast.Lt -> Ast.Ge
    | Ast.Gt -> Ast.Le
    | Ast.Le -> Ast.Gt
    | Ast.Ge -> Ast.Lt
    | op -> op  (* Eq/Neq handled by caller *)
  in
  match t with
  | Sbinop (((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Neq) as op), x, y)
    -> (
      let op, x, c =
        match (x, y) with
        | x, Con (Value.Num c) -> (op, x, Some c)
        | Con (Value.Num c), y -> (flip op, y, Some c)
        | _ -> (op, x, None)
      in
      match c with
      | None -> None
      | Some c ->
          let op =
            if b then op
            else
              match op with
              | Ast.Eq -> Ast.Neq
              | Ast.Neq -> Ast.Eq
              | op -> negate op
          in
          Some (x, op, c))
  | _ -> None

let feasible (pc : (sym * bool) list) : bool =
  (* 1. the same term asserted with both polarities *)
  let contradiction =
    List.exists
      (fun (t, b) -> List.exists (fun (t', b') -> b <> b' && sym_equal t t') pc)
      pc
  in
  if contradiction then false
  else begin
    (* 2. trivially decidable comparisons between equal terms *)
    let trivially_false =
      List.exists
        (fun (t, b) ->
          match t with
          | Sbinop ((Ast.Eq | Ast.Le | Ast.Ge), x, y) when sym_equal x y ->
              not b
          | Sbinop ((Ast.Neq | Ast.Lt | Ast.Gt), x, y) when sym_equal x y -> b
          | _ -> false)
        pc
    in
    if trivially_false then false
    else begin
      (* 3. interval reasoning over comparisons with constants *)
      let ivs : (sym * iv) list ref = ref [] in
      let excl : (sym * float) list ref = ref [] in
      let get t =
        match List.find_opt (fun (t', _) -> sym_equal t t') !ivs with
        | Some (_, iv) -> iv
        | None -> term_fact t
      in
      let set t iv =
        ivs := (t, iv) :: List.filter (fun (t', _) -> not (sym_equal t t')) !ivs
      in
      List.iter
        (fun atom ->
          match comparison atom with
          | None -> ()
          | Some (x, op, c) -> (
              match op with
              | Ast.Lt -> set x (iv_meet (get x) { iv_full with hi = c; hi_s = true })
              | Ast.Le -> set x (iv_meet (get x) { iv_full with hi = c })
              | Ast.Gt -> set x (iv_meet (get x) { iv_full with lo = c; lo_s = true })
              | Ast.Ge -> set x (iv_meet (get x) { iv_full with lo = c })
              | Ast.Eq ->
                  set x (iv_meet (get x) { lo = c; lo_s = false; hi = c; hi_s = false })
              | Ast.Neq -> excl := (x, c) :: !excl
              | _ -> ()))
        pc;
      (not (List.exists (fun (_, iv) -> iv_empty iv) !ivs))
      && not
           (List.exists
              (fun (x, c) ->
                let iv = get x in
                iv.lo = c && iv.hi = c && not iv.lo_s && not iv.hi_s)
              !excl)
    end
  end
