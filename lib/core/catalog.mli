(** The experiment catalog: every id [armvirt run] accepts, with its
    one-line description and the code that regenerates and renders it.

    This is the one place an experiment is named. [armvirt list], [run],
    [trace] and [stat] all derive their ids from {!all}, so adding an
    experiment means adding one entry here. *)

type t = {
  id : string;  (** The id [armvirt run] accepts. *)
  doc : string;  (** One line for [armvirt list]. *)
  run : Format.formatter -> unit;
      (** Run the experiment and render its report(s) to the formatter. *)
}

val all : t list
(** Every experiment, in [armvirt list] order. *)

val find : string -> t option
