(* Engine dispatch: the register-IR production engine and the switch
   reference.

   [Vm.Machine] cannot dispatch to the register backend (lib/ir sits
   above lib/vm), so every caller that may run either engine goes
   through here: {!Vm.Machine.Register} (the default) runs {!Exec},
   {!Vm.Machine.Switch} runs [Vm.Machine.exec].

   [instr_range] is the optional bulk [on_instr] sink the event ring's
   drain uses for segment events; [range_has_target] and [set_time]
   together opt the caller into the ring's thinned stream (see {!Ring}).
   [obs] publishes the [ir.*] gauges into the given registry. All are
   accepted (and ignored) by the switch engine so callers can pass them
   unconditionally. *)

let exec ?(engine = Vm.Machine.Register) ~hooked ?trace_locals ?prune
    ?instr_range ?range_has_target ?set_time ?obs (hooks : Vm.Hooks.t) ?fuel
    ?max_depth (prog : Vm.Program.t) =
  match engine with
  | Vm.Machine.Register ->
      Exec.exec ~hooked ?trace_locals ?prune ?instr_range ?range_has_target
        ?set_time ?obs hooks ?fuel ?max_depth prog
  | Vm.Machine.Switch ->
      Vm.Machine.exec ~hooked ?trace_locals ?prune hooks ?fuel ?max_depth prog

let run ?engine ?fuel ?max_depth prog =
  exec ?engine ~hooked:false Vm.Hooks.noop ?fuel ?max_depth prog

let run_hooked ?engine ?trace_locals ?prune ?instr_range ?range_has_target
    ?set_time ?obs ?fuel ?max_depth hooks prog =
  exec ?engine ~hooked:true ?trace_locals ?prune ?instr_range
    ?range_has_target ?set_time ?obs hooks ?fuel ?max_depth prog
