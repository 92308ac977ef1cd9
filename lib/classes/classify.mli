(** Recognizers for the TGD classes of the paper: SL ⊆ L ⊆ G.

    - {b guarded} (G): some body atom — the guard — contains every
      universally quantified variable;
    - {b linear} (L): the body is a single atom;
    - {b simple linear} (SL): linear with no repeated body variable and
      no constant.

    Also: {b full} (Datalog) rules and the {b single-head} restriction
    of §4. *)

open Chase_logic

type cls =
  | Simple_linear
  | Linear
  | Guarded
  | Unguarded

val cls_to_string : cls -> string
val pp_cls : Format.formatter -> cls -> unit

val guard_of : Tgd.t -> Atom.t option
(** The first body atom containing all body variables, if any. *)

val rule_is_guarded : Tgd.t -> bool

val best_guard_candidate : Tgd.t -> Atom.t option
(** The body atom covering the most body variables (first among ties);
    the guard itself when the rule is guarded. *)

val unguarded_witness : Tgd.t -> Term.t list
(** The body variables the best guard candidate does not cover, i.e. the
    reason the rule is unguarded; [[]] on guarded rules. *)

val rule_is_linear : Tgd.t -> bool
val rule_is_simple_linear : Tgd.t -> bool

val classify_rule : Tgd.t -> cls
(** The most specific class of a rule. *)

val classify : Tgd.t list -> cls
(** The most specific class containing every rule of the set. *)

val is_simple_linear : Tgd.t list -> bool
val is_linear : Tgd.t list -> bool
val is_guarded : Tgd.t list -> bool

val is_full : Tgd.t list -> bool
(** No existential variables anywhere (Datalog). *)

val is_single_head : Tgd.t list -> bool
(** Every rule has one head atom and no predicate heads two rules (§4). *)
