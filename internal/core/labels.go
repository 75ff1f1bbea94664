package core

import "rackblox/internal/sim"

// Handler labels of every event the rack schedules: the buckets of
// Result.EventsByHandler. They are declared once here, so scheduling an
// event costs no label lookup.
var (
	labelClientBounce       = sim.NewLabel("client.bounce")
	labelClientIssue        = sim.NewLabel("client.issue")
	labelClientIssueEC      = sim.NewLabel("client.issue_ec")
	labelClientPeerLoad     = sim.NewLabel("client.peer_load")
	labelClientSWRedirect   = sim.NewLabel("client.sw_redirect")
	labelClientTimeout      = sim.NewLabel("client.timeout")
	labelECChunkBack        = sim.NewLabel("ec.chunk_back")
	labelECChunkRead        = sim.NewLabel("ec.chunk_read")
	labelECDecode           = sim.NewLabel("ec.decode")
	labelECReintegrate      = sim.NewLabel("ec.reintegrate")
	labelECRepairDone       = sim.NewLabel("ec.repair_done")
	labelECRepairPump       = sim.NewLabel("ec.repair_pump")
	labelFailoverClear      = sim.NewLabel("failover.clear")
	labelFailoverInstall    = sim.NewLabel("failover.install")
	labelFailoverMemberDead = sim.NewLabel("failover.member_dead")
	labelGCBurstEnd         = sim.NewLabel("gc.burst_end")
	labelGCCtrlNotify       = sim.NewLabel("gc.ctrl_notify")
	labelGCCtrlReply        = sim.NewLabel("gc.ctrl_reply")
	labelGCCtrlRequest      = sim.NewLabel("gc.ctrl_request")
	labelGCMonitor          = sim.NewLabel("gc.monitor")
	labelGCNotify           = sim.NewLabel("gc.notify")
	labelGCOp               = sim.NewLabel("gc.op")
	labelGCOpTimeout        = sim.NewLabel("gc.op_timeout")
	labelHermesMsg          = sim.NewLabel("hermes.msg")
	labelNetClientSend      = sim.NewLabel("net.client_send")
	labelNetDeliver         = sim.NewLabel("net.deliver")
	labelNetHandoff         = sim.NewLabel("net.handoff")
	labelNetRespond         = sim.NewLabel("net.respond")
	labelPacedTick          = sim.NewLabel("paced.tick")
	labelScenario           = sim.NewLabel("scenario")
	labelServerAdmit        = sim.NewLabel("server.admit")
	labelServerCacheHit     = sim.NewLabel("server.cache_hit")
	labelServerCacheInsert  = sim.NewLabel("server.cache_insert")
	labelServerPump         = sim.NewLabel("server.pump")
	labelServerStaleRetry   = sim.NewLabel("server.stale_retry")
)
