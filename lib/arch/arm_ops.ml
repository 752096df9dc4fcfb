module Cycles = Armvirt_engine.Cycles

type t = { machine : Machine.t; hw : Cost_model.arm }

let create machine =
  match Machine.cost machine with
  | Cost_model.Arm hw -> { machine; hw }
  | Cost_model.X86 _ ->
      invalid_arg "Arm_ops.create: machine has an x86 cost model"

let machine t = t.machine
let hw t = t.hw
let vhe_enabled t = t.hw.Cost_model.vhe

let spend t label cycles = Machine.spend t.machine label cycles

let hvc_issue t = spend t "arm.hvc_issue" t.hw.Cost_model.hvc_issue
let trap_to_el2 t = spend t "arm.trap_to_el2" t.hw.Cost_model.trap_to_el2
let eret t = spend t "arm.eret" t.hw.Cost_model.eret

let save_classes t classes =
  List.iter
    (fun cls ->
      spend t
        ("arm.save." ^ Reg_class.to_string cls)
        (t.hw.Cost_model.reg cls).Cost_model.save)
    classes

let restore_classes t classes =
  List.iter
    (fun cls ->
      spend t
        ("arm.restore." ^ Reg_class.to_string cls)
        (t.hw.Cost_model.reg cls).Cost_model.restore)
    classes

let stage2_disable t =
  if not t.hw.Cost_model.vhe then
    spend t "arm.stage2_toggle" t.hw.Cost_model.stage2_toggle

let stage2_enable t =
  if not t.hw.Cost_model.vhe then
    spend t "arm.stage2_toggle" t.hw.Cost_model.stage2_toggle

let mmio_decode t = spend t "arm.mmio_decode" t.hw.Cost_model.mmio_decode
let vgic_slot_scan t = spend t "arm.vgic_slot_scan" t.hw.Cost_model.vgic_slot_scan
let vgic_lr_write t = spend t "arm.vgic_lr_write" t.hw.Cost_model.vgic_lr_write
let virq_complete t = spend t "arm.virq_complete" t.hw.Cost_model.virq_complete

let virq_guest_dispatch t =
  spend t "arm.virq_guest_dispatch" t.hw.Cost_model.virq_guest_dispatch

let ipi_wire_latency t = Cycles.of_int t.hw.Cost_model.phys_ipi_wire

let tlb_invalidate_broadcast t =
  spend t "arm.tlb_broadcast" t.hw.Cost_model.tlb_broadcast_invalidate

let page_map t = spend t "arm.page_map" t.hw.Cost_model.page_map_cost

let copy_bytes t n =
  spend t "arm.copy_bytes"
    (Cost_model.copy_cost ~per_byte:t.hw.Cost_model.per_byte_copy ~bytes:n)

let barrier_cost t = Cycles.of_int t.hw.Cost_model.timestamp_barrier
